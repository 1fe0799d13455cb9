// Package stats provides the small statistical toolkit the experiments
// need: means, confidence intervals, and the inter-miss-distance CDFs of
// Figure 2 (observed distribution vs the uniform/geometric reference).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Ratio returns num/den, or 0 when den is 0. It centralizes the guarded
// divisions that MLP-style averages need.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// DistanceRecorder accumulates distances between consecutive events in an
// instruction stream (the inter-miss distances of §2.3 / Figure 2).
type DistanceRecorder struct {
	last      int64
	havePrev  bool
	distances []int64
}

// Observe records that an event occurred at instruction index idx; the
// distance from the previous event is accumulated.
func (d *DistanceRecorder) Observe(idx int64) {
	if d.havePrev {
		d.distances = append(d.distances, idx-d.last)
	}
	d.last = idx
	d.havePrev = true
}

// MeanDistance returns the average inter-event distance, or 0 when fewer
// than two events were observed.
func (d *DistanceRecorder) MeanDistance() float64 {
	if len(d.distances) == 0 {
		return 0
	}
	var sum int64
	for _, x := range d.distances {
		sum += x
	}
	return float64(sum) / float64(len(d.distances))
}

// CDFAt returns the empirical cumulative probability that the next event
// occurs within n instructions, for each n in points.
func (d *DistanceRecorder) CDFAt(points []int64) []float64 {
	sorted := make([]int64, len(d.distances))
	copy(sorted, d.distances)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]float64, len(points))
	for i, p := range points {
		// count of distances <= p
		k := sort.Search(len(sorted), func(j int) bool { return sorted[j] > p })
		out[i] = Ratio(float64(k), float64(len(sorted)))
	}
	return out
}

// UniformCDFAt returns the Figure 2 reference curve: the cumulative
// probability of encountering the next event within n instructions if
// events were uniformly (geometrically) distributed with the given mean
// inter-event distance.
func UniformCDFAt(meanDistance float64, points []int64) []float64 {
	out := make([]float64, len(points))
	if meanDistance <= 0 {
		return out
	}
	p := 1.0 / meanDistance
	if p > 1 {
		p = 1
	}
	for i, n := range points {
		out[i] = 1 - math.Pow(1-p, float64(n))
	}
	return out
}

// LogSpacedPoints returns points 1, 2, 4, ..., up to max (inclusive of the
// first point >= max), used as the X axis of Figure 2.
func LogSpacedPoints(max int64) []int64 {
	if max < 1 {
		return nil
	}
	var pts []int64
	for p := int64(1); ; p *= 2 {
		pts = append(pts, p)
		if p >= max {
			break
		}
	}
	return pts
}

// Summary holds moment statistics for a sample of measurements (used to
// report multi-seed experiment stability).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
}

// Summarize computes sample statistics for xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs)}
	if len(xs) < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	return s
}

// CI95 returns the half-width of the ~95% confidence interval of the mean
// (normal approximation; fine for the n>=5 seed sweeps used here).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// RelCI95 returns CI95 as a fraction of the mean (0 when the mean is 0).
func (s Summary) RelCI95() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.CI95() / s.Mean
}
