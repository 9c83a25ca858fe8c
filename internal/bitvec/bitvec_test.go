package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Any() {
		t.Fatal("new vector has set bits")
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != 8 {
		t.Fatalf("Count = %d, want 8", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != 7 {
		t.Fatalf("Count = %d, want 7", v.Count())
	}
}

func TestSetBool(t *testing.T) {
	v := New(10)
	v.SetBool(3, true)
	v.SetBool(4, false)
	if !v.Get(3) || v.Get(4) {
		t.Fatal("SetBool mismatch")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, fn := range map[string]func(){
		"Get":   func() { v.Get(10) },
		"Set":   func() { v.Set(-1) },
		"Clear": func() { v.Clear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSetAllAndNot(t *testing.T) {
	v := New(70) // deliberately not a multiple of 64
	v.SetAll()
	if !v.All() {
		t.Fatal("SetAll did not set all bits")
	}
	if v.Count() != 70 {
		t.Fatalf("Count = %d, want 70", v.Count())
	}
	v.Not()
	if v.Any() {
		t.Fatal("Not of full vector should be empty")
	}
	v.Not()
	if v.Count() != 70 {
		t.Fatalf("double Not: Count = %d, want 70", v.Count())
	}
}

func TestNewFull(t *testing.T) {
	v := NewFull(65)
	if !v.All() || v.Count() != 65 {
		t.Fatalf("NewFull(65): Count = %d", v.Count())
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}

	and := a.Clone()
	and.And(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 == 0
		if and.Get(i) != want {
			t.Fatalf("And bit %d = %v, want %v", i, and.Get(i), want)
		}
	}

	or := a.Clone()
	or.Or(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if or.Get(i) != want {
			t.Fatalf("Or bit %d = %v, want %v", i, or.Get(i), want)
		}
	}

	an := a.Clone()
	an.AndNot(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if an.Get(i) != want {
			t.Fatalf("AndNot bit %d = %v, want %v", i, an.Get(i), want)
		}
	}

	xor := a.Clone()
	xor.Xor(b)
	for i := 0; i < 100; i++ {
		want := (i%2 == 0) != (i%3 == 0)
		if xor.Get(i) != want {
			t.Fatalf("Xor bit %d = %v, want %v", i, xor.Get(i), want)
		}
	}

}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Get(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !b.Get(5) {
		t.Fatal("Clone lost bit 5")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(64)
	a.Set(1)
	b := New(64)
	b.CopyFrom(a)
	if !b.Get(1) || b.Count() != 1 {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(33), New(33)
	if !a.Equal(b) {
		t.Fatal("two empty vectors unequal")
	}
	a.Set(32)
	if a.Equal(b) {
		t.Fatal("different vectors compare equal")
	}
	b.Set(32)
	if !a.Equal(b) {
		t.Fatal("identical vectors compare unequal")
	}
	if a.Equal(New(34)) {
		t.Fatal("different lengths compare equal")
	}
}

func TestNextSet(t *testing.T) {
	v := New(300)
	for _, i := range []int{3, 64, 130, 299} {
		v.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 130},
		{131, 299}, {299, 299}, {-5, 3},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := v.NextSet(300); got != -1 {
		t.Errorf("NextSet past end = %d, want -1", got)
	}
	if got := New(10).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

func TestForEachAndIndices(t *testing.T) {
	v := New(200)
	want := []int{0, 17, 63, 64, 128, 199}
	for _, i := range want {
		v.Set(i)
	}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(1)
	v.Set(3)
	if s := v.String(); s != "0101" {
		t.Fatalf("String = %q, want 0101", s)
	}
	long := NewFull(200)
	if s := long.String(); len(s) == 0 {
		t.Fatal("long String is empty")
	}
}

// Property: Count equals the number of indices reported by ForEach, and
// round-tripping through Indices reconstructs the vector.
func TestQuickCountMatchesIndices(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
			}
		}
		idx := v.Indices()
		if len(idx) != v.Count() {
			return false
		}
		w := New(n)
		for _, i := range idx {
			w.Set(i)
		}
		return w.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — ¬(a ∧ b) == ¬a ∨ ¬b.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				a.Set(i)
			}
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		lhs := a.Clone()
		lhs.And(b)
		lhs.Not()

		na, nb := a.Clone(), b.Clone()
		na.Not()
		nb.Not()
		na.Or(nb)
		return lhs.Equal(na)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	v := NewFull(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v.Count() != 1<<20 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkAnd(b *testing.B) {
	x := NewFull(1 << 20)
	y := NewFull(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}
