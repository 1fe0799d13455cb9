package experiments

// Figure8Row compares runahead execution against two conventional
// configurations for one workload (§5.4.1).
type Figure8Row struct {
	Workload string
	// Conv64 is the 64-entry IW / 64-entry ROB configuration D.
	Conv64 float64
	// Conv256 is the 64-entry IW / 256-entry ROB configuration D.
	Conv256 float64
	// RAE is runahead execution (max distance 2048).
	RAE float64
}

// Figure8 reproduces Figure 8: impact of runahead execution on MLP.
type Figure8 struct {
	Rows []Figure8Row
}

// RunFigure8 executes the experiment.
func RunFigure8(s Setup) Figure8 { return run(s, planFigure8) }

// planFigure8 lists 64D/64, 64D/256 and runahead per workload.
func planFigure8(s Setup) ([]Point, func([]Result) Figure8) {
	var points []Point
	for _, w := range s.Workloads {
		for _, b := range figure9Bases() {
			points = append(points, Point{Kind: EngineRun, Workload: w, Engine: b.cfg})
		}
	}
	return points, func(rs []Result) Figure8 {
		rows := make([]Figure8Row, len(s.Workloads))
		for i, w := range s.Workloads {
			rows[i] = Figure8Row{Workload: w.Name,
				Conv64: rs[3*i].Engine.MLP(), Conv256: rs[3*i+1].Engine.MLP(), RAE: rs[3*i+2].Engine.MLP()}
		}
		return Figure8{Rows: rows}
	}
}

// String renders the comparison with the paper's improvement
// percentages.
func (f Figure8) String() string {
	tb := newTable("Figure 8: Impact of Runahead Execution (MLP)")
	tb.row("Workload", "64D/64", "64D/256", "RAE", "RAE vs 64D/64", "RAE vs 64D/256")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t+%s\t+%s",
			r.Workload, f2(r.Conv64), f2(r.Conv256), f2(r.RAE),
			pct(r.RAE/r.Conv64-1), pct(r.RAE/r.Conv256-1))
	}
	return tb.String() + "\n" + f.Chart()
}
