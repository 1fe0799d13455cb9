package experiments

import "mlpsim/internal/core"

// Table5Row holds the in-order MLP of one workload.
type Table5Row struct {
	Workload    string
	StallOnMiss float64
	StallOnUse  float64
}

// Table5 reproduces Table 5: MLP of in-order issue.
type Table5 struct {
	Rows []Table5Row
}

// RunTable5 executes the experiment.
func RunTable5(s Setup) Table5 { return run(s, planTable5) }

// planTable5 lists stall-on-miss then stall-on-use per workload.
func planTable5(s Setup) ([]Point, func([]Result) Table5) {
	var points []Point
	for _, w := range s.Workloads {
		for _, mode := range []core.WindowMode{core.InOrderStallOnMiss, core.InOrderStallOnUse} {
			points = append(points, Point{Kind: EngineRun, Workload: w, Engine: core.Config{Mode: mode}})
		}
	}
	return points, func(rs []Result) Table5 {
		rows := make([]Table5Row, len(s.Workloads))
		for i, w := range s.Workloads {
			rows[i] = Table5Row{Workload: w.Name, StallOnMiss: rs[2*i].Engine.MLP(), StallOnUse: rs[2*i+1].Engine.MLP()}
		}
		return Table5{Rows: rows}
	}
}

// String renders the table.
func (t Table5) String() string {
	tb := newTable("Table 5: MLP of In-Order Issue")
	tb.row("Benchmark", "Stall-on-Miss", "Stall-on-Use")
	for _, r := range t.Rows {
		tb.rowf("%s\t%s\t%s", r.Workload, f2(r.StallOnMiss), f2(r.StallOnUse))
	}
	return tb.String()
}
