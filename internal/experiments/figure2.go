package experiments

import (
	"mlpsim/internal/stats"
)

// Figure2Series is the clustering curve of one workload: the cumulative
// probability of encountering another off-chip access within N dynamic
// instructions, observed vs the uniform (geometric) assumption.
type Figure2Series struct {
	Workload     string
	MeanDistance float64
	Points       []int64
	Observed     []float64
	Uniform      []float64
}

// Figure2 reproduces Figure 2: clustering of misses.
type Figure2 struct {
	Series []Figure2Series
}

// RunFigure2 executes the experiment.
func RunFigure2(s Setup) Figure2 { return run(s, planFigure2) }

func planFigure2(s Setup) ([]Point, func([]Result) Figure2) {
	points := make([]Point, len(s.Workloads))
	for i, w := range s.Workloads {
		points[i] = Point{Kind: MissDistance, Workload: w}
	}
	return points, func(rs []Result) Figure2 {
		probes := append([]int64(nil), missDistanceProbes...)
		series := make([]Figure2Series, len(rs))
		for i, r := range rs {
			series[i] = Figure2Series{
				Workload:     s.Workloads[i].Name,
				MeanDistance: r.MeanDistance,
				Points:       probes,
				Observed:     r.DistanceCDF,
				Uniform:      stats.UniformCDFAt(r.MeanDistance, probes),
			}
		}
		return Figure2{Series: series}
	}
}

// String renders the curves as a table of CDF values.
func (f Figure2) String() string {
	tb := newTable("Figure 2: Clustering of Misses (CDF of inter-miss distance)")
	header := []string{"Within N insts"}
	for _, se := range f.Series {
		header = append(header, se.Workload+" obs", se.Workload+" unif")
	}
	tb.row(header...)
	if len(f.Series) == 0 {
		return tb.String()
	}
	for pi, p := range f.Series[0].Points {
		cells := []string{f3(float64(p))}
		for _, se := range f.Series {
			cells = append(cells, f3(se.Observed[pi]), f3(se.Uniform[pi]))
		}
		tb.row(cells...)
	}
	tb.rowf("mean inter-miss distance:\t%s", func() string {
		out := ""
		for _, se := range f.Series {
			out += se.Workload + "=" + f2(se.MeanDistance) + "  "
		}
		return out
	}())
	return tb.String() + "\n" + f.Chart()
}
