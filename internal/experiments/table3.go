package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/workload"
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
func RunTable3(s Setup) Table3 {
	windows := []int{32, 64, 128}
	configs := []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC}

	type job struct {
		w      workload.Config
		window int
		issue  core.IssueConfig
	}
	var jobs []job
	for _, w := range s.Workloads {
		for _, win := range windows {
			for _, ic := range configs {
				jobs = append(jobs, job{w, win, ic})
			}
		}
	}
	rows := make([]Table3Row, len(jobs))
	s.forEach(len(jobs), func(i int) {
		j := jobs[i]
		row := Table3Row{Workload: j.w.Name, Window: j.window, Issue: j.issue}
		mres := s.RunMLPsim(j.w, core.Default().WithWindow(j.window).WithIssue(j.issue),
			annotate.Config{})
		row.MLPsim = mres.MLP()
		cfgs := make([]cyclesim.Config, len(Table3Latencies))
		for k, pen := range Table3Latencies {
			cfgs[k] = cyclesim.Default(pen)
			cfgs[k].IssueWindow, cfgs[k].ROB = j.window, j.window
			cfgs[k].Issue = j.issue
		}
		// The three latencies share one stream: one gang, one decode.
		for k, cres := range s.RunCycleSimGang(j.w, cfgs, annotate.Config{}) {
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
	})
	return Table3{Rows: rows}
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
