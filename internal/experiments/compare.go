package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/vpred"
)

// CompareRow is one paper-vs-measured headline number.
type CompareRow struct {
	Workload string
	Metric   string
	Paper    float64
	Measured float64
}

// Compare runs the headline configurations and prints them next to the
// paper's published values — the quick fidelity check the other exhibits
// expand on.
type Compare struct {
	Rows []CompareRow
}

// RunCompare executes the comparison.
func RunCompare(s Setup) Compare { return run(s, planCompare) }

// planCompare lists six points per workload: 64C, stall-on-miss,
// stall-on-use, 64D and runahead runs, then the value predictor's
// statistics.
func planCompare(s Setup) ([]Point, func([]Result) Compare) {
	const per = 6
	var points []Point
	for _, w := range s.Workloads {
		for _, cfg := range []core.Config{
			core.Default(),
			{Mode: core.InOrderStallOnMiss},
			{Mode: core.InOrderStallOnUse},
			core.Default().WithIssue(core.ConfigD),
			core.Default().WithIssue(core.ConfigD).WithRunahead(),
		} {
			points = append(points, Point{Kind: EngineRun, Workload: w, Engine: cfg})
		}
		points = append(points, Point{Kind: StreamStats, Workload: w,
			Annot: annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}})
	}
	return points, func(rs []Result) Compare {
		var rows []CompareRow
		for wi, w := range s.Workloads {
			m := rs[wi*per : (wi+1)*per]
			vpCorrect, _, vpNoPredict := m[5].Annot.VP.Fractions()
			name := w.Name
			rows = append(rows,
				CompareRow{name, "L2 miss rate (/100)", paperT1(name, "miss"), m[0].Engine.MissRatePer100()},
				CompareRow{name, "MLP 64C (Table 3)", PaperTable3MLPsim[name]["64C"], m[0].Engine.MLP()},
				CompareRow{name, "MLP in-order stall-on-miss", PaperTable5[name][0], m[1].Engine.MLP()},
				CompareRow{name, "MLP in-order stall-on-use", PaperTable5[name][1], m[2].Engine.MLP()},
				CompareRow{name, "RAE MLP gain vs 64D", PaperFigure8Gains[name][0], m[4].Engine.MLP()/m[3].Engine.MLP() - 1},
				CompareRow{name, "VP correct fraction", PaperTable6[name][0], vpCorrect},
				CompareRow{name, "VP no-predict fraction", PaperTable6[name][2], vpNoPredict},
			)
		}
		return Compare{Rows: rows}
	}
}

func paperT1(workload, metric string) float64 {
	for _, r := range PaperTable1 {
		if r.Workload == workload && r.Penalty == 1000 {
			if metric == "miss" {
				return r.MissRatePer100
			}
		}
	}
	return 0
}

// String renders the comparison.
func (c Compare) String() string {
	tb := newTable("Paper vs Measured: headline numbers")
	tb.row("Workload", "Metric", "Paper", "Measured")
	for _, r := range c.Rows {
		tb.rowf("%s\t%s\t%s\t%s", r.Workload, r.Metric, f2(r.Paper), f2(r.Measured))
	}
	return tb.String()
}
