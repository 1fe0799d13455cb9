package experiments

import (
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
)

// Table3Row is one (workload, window, config) validation cell: the cycle
// simulator's MLP at three off-chip latencies against MLPsim's single
// timing-free number.
type Table3Row struct {
	Workload     string
	Window       int
	Issue        core.IssueConfig
	CycleSim200  float64
	CycleSim500  float64
	CycleSim1000 float64
	MLPsim       float64
}

// Table3 reproduces Table 3: MLPsim vs cycle-accurate simulator.
type Table3 struct {
	Rows []Table3Row
}

// Table3Latencies are the off-chip latencies the paper validates against.
var Table3Latencies = []int{200, 500, 1000}

// RunTable3 executes the validation matrix: windows 32/64/128 and issue
// configurations A/B/C (the cycle simulator cannot model out-of-order
// branches, exactly like the paper's).
func RunTable3(s Setup) Table3 { return run(s, planTable3) }

// planTable3 lists one MLPsim point per cell, then per cell one cycle-
// simulator gang over the three latencies (one stream, one decode).
func planTable3(s Setup) ([]Point, func([]Result) Table3) {
	var jobs []Point // the MLPsim point of each cell
	for _, w := range s.Workloads {
		for _, win := range []int{32, 64, 128} {
			for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC} {
				jobs = append(jobs, Point{Kind: EngineRun, Workload: w,
					Engine: core.Default().WithWindow(win).WithIssue(ic)})
			}
		}
	}
	n := len(jobs)
	points := append([]Point(nil), jobs...)
	for _, j := range jobs {
		cfgs := make([]cyclesim.Config, len(Table3Latencies))
		for k, pen := range Table3Latencies {
			cfgs[k] = cyclesim.Default(pen)
			cfgs[k].IssueWindow, cfgs[k].ROB = j.Engine.IssueWindow, j.Engine.ROB
			cfgs[k].Issue = j.Engine.Issue
		}
		points = append(points, Point{Kind: CycleGang, Workload: j.Workload, Cycle: cfgs})
	}
	return points, func(rs []Result) Table3 {
		rows := make([]Table3Row, n)
		for i, j := range jobs {
			row := Table3Row{Workload: j.Workload.Name, Window: j.Engine.ROB, Issue: j.Engine.Issue,
				MLPsim: rs[i].Engine.MLP()}
			for k, cres := range rs[n+i].Cycle {
				switch Table3Latencies[k] {
				case 200:
					row.CycleSim200 = cres.MLP
				case 500:
					row.CycleSim500 = cres.MLP
				case 1000:
					row.CycleSim1000 = cres.MLP
				}
			}
			rows[i] = row
		}
		return Table3{Rows: rows}
	}
}

// String renders the validation matrix.
func (t Table3) String() string {
	tb := newTable("Table 3: Comparison of MLP numbers by MLPsim and Cycle-Accurate Simulator")
	tb.row("Workload", "ROB/IW", "Config", "CycleSim 200", "CycleSim 500", "CycleSim 1000", "MLPsim")
	for _, r := range t.Rows {
		tb.rowf("%s\t%d\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Window, r.Issue, f2(r.CycleSim200), f2(r.CycleSim500),
			f2(r.CycleSim1000), f2(r.MLPsim))
	}
	return tb.String()
}

// MaxRelError returns the largest |MLPsim − CycleSim(latency)| /
// CycleSim(latency) over all rows, used by tests to assert the paper's
// convergence claim.
func (t Table3) MaxRelError(latency int) float64 {
	max := 0.0
	for _, r := range t.Rows {
		var c float64
		switch latency {
		case 200:
			c = r.CycleSim200
		case 500:
			c = r.CycleSim500
		default:
			c = r.CycleSim1000
		}
		if c == 0 {
			continue
		}
		rel := (r.MLPsim - c) / c
		if rel < 0 {
			rel = -rel
		}
		if rel > max {
			max = rel
		}
	}
	return max
}
