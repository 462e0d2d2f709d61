package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minTailSamples is the sample count below which a *_p99 metric is not a
// 99th percentile: the highest percentile with at least ten samples beyond
// it is reported instead, and the run's context flags it.
const minTailSamples = 1000

// samples is a concurrency-safe bag of observations in one unit.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// sorted returns a sorted copy.
func (s *samples) sorted() []float64 { return sortedCopy(s.inOrder()) }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// tail is the reported tail of sorted xs: the 99th percentile when at
// least minTailSamples were taken, otherwise the highest percentile with
// ten samples beyond it. It returns the value and the percentile used.
func tail(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n >= minTailSamples || n == 0 {
		return quantile(sorted, 0.99), 99
	}
	q := 1 - 10/float64(n)
	if q < 0.5 {
		q = 0.5
	}
	return quantile(sorted, q), 100 * q
}

// windowTail is the end-to-end tail of xs taken in arrival order: with
// fewer than 2*minTailSamples samples it is tail of all of them; with
// more, xs is cut into consecutive windows of at least minTailSamples,
// each window's p99 is taken, and the median over windows is reported, so
// a burst of host interference moves one window rather than the result.
// It returns the value, the percentile and the number of windows.
func windowTail(xs []float64) (float64, float64, int) {
	w := len(xs) / minTailSamples
	if w < 2 {
		v, q := tail(sortedCopy(xs))
		return v, q, 1
	}
	var p99s []float64
	for i := 0; i < w; i++ {
		lo, hi := i*len(xs)/w, (i+1)*len(xs)/w
		p99s = append(p99s, quantile(sortedCopy(xs[lo:hi]), 0.99))
	}
	return median(p99s), 99, w
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// inOrder returns a copy of the samples in arrival order.
func (s *samples) inOrder() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// median is the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// opRec records one operation type's latencies and outcomes. A failed
// operation is recorded as an infinite latency: it misses every limit.
type opRec struct {
	lat       samples
	mu        sync.Mutex
	attempted int64
	failed    int64
}

func (o *opRec) record(d time.Duration, err error) {
	o.mu.Lock()
	o.attempted++
	if err != nil {
		o.failed++
	}
	o.mu.Unlock()
	if err != nil {
		o.lat.add(math.Inf(1))
		return
	}
	o.lat.add(ms(d))
}

func (o *opRec) counts() (attempted, failed int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempted, o.failed
}
