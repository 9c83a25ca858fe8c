// Package bitvec provides a compact, fixed-length bit vector used for
// vertex and edge masks throughout the butterfly algorithms.
//
// A Vector of length n stores n bits packed into 64-bit words. The zero
// value is an empty (length-0) vector; use New to allocate one of a given
// length. All index arguments must be in [0, Len()); out-of-range access
// panics like a slice access would.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length sequence of bits.
type Vector struct {
	n     int
	words []uint64
}

// New returns a Vector of length n with all bits cleared.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns a Vector of length n with all bits set.
func NewFull(n int) *Vector {
	v := New(n)
	v.SetAll()
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the unused high bits of the final word so that Count and
// equality work on whole words.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(r)) - 1
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (v *Vector) None() bool { return !v.Any() }

// All reports whether every bit is set.
func (v *Vector) All() bool { return v.Count() == v.n }

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of o. Lengths must match.
func (v *Vector) CopyFrom(o *Vector) {
	v.mustMatch(o)
	copy(v.words, o.words)
}

func (v *Vector) mustMatch(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// And stores v ∧ o into v.
func (v *Vector) And(o *Vector) {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Or stores v ∨ o into v.
func (v *Vector) Or(o *Vector) {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// AndNot stores v ∧ ¬o into v.
func (v *Vector) AndNot(o *Vector) {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// Xor stores v ⊕ o into v.
func (v *Vector) Xor(o *Vector) {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
}

// Not flips every bit in place.
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// ForEach calls fn for every set bit, in increasing order.
func (v *Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Indices returns the indices of all set bits, in increasing order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the vector as a 0/1 string, bit 0 first. Long vectors
// are abbreviated.
func (v *Vector) String() string {
	var sb strings.Builder
	limit := v.n
	const max = 128
	if limit > max {
		limit = max
	}
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if v.n > max {
		fmt.Fprintf(&sb, "… (%d bits, %d set)", v.n, v.Count())
	}
	return sb.String()
}
