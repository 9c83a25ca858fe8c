package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func sec(d time.Duration) float64 { return d.Seconds() }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. Off
// Linux it falls back to the Go runtime's total obtained memory.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// runtimeWindow captures Go runtime counters across a measured window.
type runtimeWindow struct{ start runtime.MemStats }

func beginRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// end reports the window's GC pause total (ms), GC cycles, and bytes
// allocated per op (KB).
func (w *runtimeWindow) end(ops int64) (pauseMS, cycles, allocKBPerOp float64) {
	var e runtime.MemStats
	runtime.ReadMemStats(&e)
	pauseMS = float64(e.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	cycles = float64(e.NumGC - w.start.NumGC)
	if ops > 0 {
		allocKBPerOp = float64(e.TotalAlloc-w.start.TotalAlloc) / 1024 / float64(ops)
	}
	return pauseMS, cycles, allocKBPerOp
}

// allocMB returns the bytes allocated by fn, in MB.
func allocMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}
