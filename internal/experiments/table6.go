package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/vpred"
)

// Table6Row holds the missing-load value predictor accuracy for one
// workload.
type Table6Row struct {
	Workload  string
	Correct   float64
	Wrong     float64
	NoPredict float64
}

// Table6 reproduces Table 6: value predictor statistics (16K-entry
// last-value predictor consulted only for missing loads).
type Table6 struct {
	Rows []Table6Row
}

// RunTable6 executes the experiment.
func RunTable6(s Setup) Table6 { return run(s, planTable6) }

func planTable6(s Setup) ([]Point, func([]Result) Table6) {
	points := make([]Point, len(s.Workloads))
	for i, w := range s.Workloads {
		points[i] = Point{Kind: StreamStats, Workload: w, Annot: annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}}
	}
	return points, func(rs []Result) Table6 {
		rows := make([]Table6Row, len(rs))
		for i, r := range rs {
			c, wr, np := r.Annot.VP.Fractions()
			rows[i] = Table6Row{Workload: s.Workloads[i].Name, Correct: c, Wrong: wr, NoPredict: np}
		}
		return Table6{Rows: rows}
	}
}

// String renders the table.
func (t Table6) String() string {
	tb := newTable("Table 6: Value Predictor Statistics (missing loads)")
	tb.row("Benchmark", "Correct", "Wrong", "No Predict")
	for _, r := range t.Rows {
		tb.rowf("%s\t%s\t%s\t%s", r.Workload, pct(r.Correct), pct(r.Wrong), pct(r.NoPredict))
	}
	return tb.String()
}
