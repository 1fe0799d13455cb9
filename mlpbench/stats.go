package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail report may name, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything.
const minBeyond = 10

// Tail is one percentile of a sample set, named so a report can say
// which percentile it quotes and on how many samples it rests.
type Tail struct {
	Label  string  // e.g. "p99"
	P      float64 // the percentile, e.g. 99
	Value  float64 // the sample at that percentile (nearest rank)
	Beyond int     // samples strictly above the percentile's rank
	N      int     // samples in the set
}

func (t Tail) String() string {
	return fmt.Sprintf("%s=%.4g (n=%d, %d beyond)", t.Label, t.Value, t.N, t.Beyond)
}

// HighestTail returns the highest percentile of tailLadder that has at
// least minBeyond samples ranked beyond it. ok is false when there are
// too few samples for even the median to qualify.
func HighestTail(samples []float64) (t Tail, ok bool) {
	n := len(samples)
	if n == 0 {
		return Tail{}, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range tailLadder {
		// Nearest rank, 0-based; the epsilon keeps p/100*n from rounding
		// up past an exact integer (99.9/100*10000 is 9990.000000000002).
		rank := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
		if rank < 0 {
			rank = 0
		}
		beyond := n - 1 - rank
		if beyond < minBeyond {
			continue
		}
		return Tail{Label: percentileLabel(p), P: p, Value: sorted[rank], Beyond: beyond, N: n}, true
	}
	return Tail{N: n}, false
}

func percentileLabel(p float64) string {
	return fmt.Sprintf("p%g", p)
}

// Median returns the middle sample (the mean of the two middle samples
// for an even count); 0 for no samples.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Quartiles returns the three cut points dividing samples into four
// groups by the "exclusive" method — the same numbers as Python's
// statistics.quantiles(samples, n=4). It needs at least two samples.
func Quartiles(samples []float64) (q1, q2, q3 float64, ok bool) {
	n := len(samples)
	if n < 2 {
		return 0, 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}
