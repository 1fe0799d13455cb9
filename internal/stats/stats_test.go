package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 4); got != 0.75 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Fatalf("Ratio by zero = %v, want 0", got)
	}
}

func TestDistanceRecorder(t *testing.T) {
	var d DistanceRecorder
	if d.MeanDistance() != 0 {
		t.Fatal("empty recorder mean must be 0")
	}
	for _, idx := range []int64{10, 20, 50, 60} {
		d.Observe(idx)
	}
	got := d.distances
	want := []int64{10, 30, 10}
	if len(got) != len(want) {
		t.Fatalf("distances = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
	if m := d.MeanDistance(); math.Abs(m-50.0/3) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	cdf := d.CDFAt([]int64{5, 10, 30, 100})
	wantCDF := []float64{0, 2.0 / 3, 1, 1}
	for i := range wantCDF {
		if math.Abs(cdf[i]-wantCDF[i]) > 1e-12 {
			t.Fatalf("cdf = %v, want %v", cdf, wantCDF)
		}
	}
}

func TestUniformCDF(t *testing.T) {
	pts := []int64{1, 10, 100}
	cdf := UniformCDFAt(10, pts)
	// p = 0.1: CDF(n) = 1-(0.9)^n
	want := []float64{0.1, 1 - math.Pow(0.9, 10), 1 - math.Pow(0.9, 100)}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Fatalf("uniform cdf = %v, want %v", cdf, want)
		}
	}
	if got := UniformCDFAt(0, pts); got[0] != 0 || got[2] != 0 {
		t.Fatal("zero mean must produce zero CDF")
	}
	// Mean below 1 clamps p to 1: event certain within 1 instruction.
	if got := UniformCDFAt(0.5, pts); got[0] != 1 {
		t.Fatal("sub-unit mean must clamp")
	}
}

func TestLogSpacedPoints(t *testing.T) {
	got := LogSpacedPoints(100)
	want := []int64{1, 2, 4, 8, 16, 32, 64, 128}
	if len(got) != len(want) {
		t.Fatalf("points = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("points = %v, want %v", got, want)
		}
	}
	if LogSpacedPoints(0) != nil {
		t.Fatal("max<1 must return nil")
	}
}

// Property: the empirical CDF of geometrically spaced events approaches
// the analytic uniform CDF.
func TestGeometricMatchesUniformCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var d DistanceRecorder
	idx := int64(0)
	const p = 0.02
	for i := 0; i < 200000; i++ {
		idx++
		if rng.Float64() < p {
			d.Observe(idx)
		}
	}
	pts := []int64{10, 50, 100, 200}
	emp := d.CDFAt(pts)
	ana := UniformCDFAt(1/p, pts)
	for i := range pts {
		if math.Abs(emp[i]-ana[i]) > 0.03 {
			t.Fatalf("at %d: empirical %.3f vs analytic %.3f", pts[i], emp[i], ana[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.CI95() <= 0 || s.RelCI95() <= 0 {
		t.Fatal("CI must be positive for a spread sample")
	}
	if got := Summarize(nil); got.N != 0 || got.CI95() != 0 {
		t.Fatal("empty summary")
	}
	if got := Summarize([]float64{3}); got.Mean != 3 || got.CI95() != 0 {
		t.Fatal("singleton summary")
	}
	if (Summary{N: 5, Mean: 0, StdDev: 1}).RelCI95() != 0 {
		t.Fatal("zero-mean RelCI95 must be 0")
	}
}
