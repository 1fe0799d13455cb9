package experiments

import "mlpsim/internal/core"

// Figure10Row holds the limit-study MLPs for one workload on one baseline
// (§5.6): perfect instruction prefetching, perfect value prediction,
// perfect branch prediction, and perfect VP+BP together.
type Figure10Row struct {
	Workload string
	Baseline string // "RAE" or "64D/256" (no RAE)
	Base     float64
	PerfI    float64
	PerfVP   float64
	PerfBP   float64
	PerfVPBP float64
}

// Figure10 reproduces Figure 10: the limit study.
type Figure10 struct {
	Rows []Figure10Row
}

// RunFigure10 executes the experiment.
func RunFigure10(s Setup) Figure10 { return run(s, planFigure10) }

func planFigure10(s Setup) ([]Point, func([]Result) Figure10) {
	baselines := []struct {
		name string
		cfg  core.Config
	}{
		{"RAE", core.Default().WithIssue(core.ConfigD).WithRunahead()},
		{"64D/256", core.Default().WithIssue(core.ConfigD).WithROB(256)},
	}
	variants := []func(*core.Config){
		func(*core.Config) {},
		func(c *core.Config) { c.PerfectIFetch = true },
		func(c *core.Config) { c.PerfectVP = true },
		func(c *core.Config) { c.PerfectBP = true },
		func(c *core.Config) { c.PerfectVP = true; c.PerfectBP = true },
	}
	var points []Point
	for _, w := range s.Workloads {
		for _, b := range baselines {
			for _, v := range variants {
				cfg := b.cfg
				v(&cfg)
				points = append(points, Point{Kind: EngineRun, Workload: w, Engine: cfg})
			}
		}
	}
	return points, func(rs []Result) Figure10 {
		var rows []Figure10Row
		for i := 0; i < len(rs); i += len(variants) {
			mlp := func(v int) float64 { return rs[i+v].Engine.MLP() }
			rows = append(rows, Figure10Row{
				Workload: points[i].Workload.Name,
				Baseline: baselines[i/len(variants)%len(baselines)].name,
				Base:     mlp(0),
				PerfI:    mlp(1),
				PerfVP:   mlp(2),
				PerfBP:   mlp(3),
				PerfVPBP: mlp(4),
			})
		}
		return Figure10{Rows: rows}
	}
}

// String renders the limit study.
func (f Figure10) String() string {
	tb := newTable("Figure 10: Limit Study — Perfect I-Fetch / Value Prediction / Branch Prediction (MLP)")
	tb.row("Workload", "Baseline", "base", ".perfI", ".perfVP", ".perfBP", ".perfVP.perfBP")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Baseline, f2(r.Base), f2(r.PerfI), f2(r.PerfVP), f2(r.PerfBP), f2(r.PerfVPBP))
	}
	return tb.String() + "\n" + f.Chart()
}
