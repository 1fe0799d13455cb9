package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/vpred"
)

// Figure9Row shows, for one workload and one base configuration, the MLP
// and modelled performance effect of adding missing-load value prediction
// (§5.5).
type Figure9Row struct {
	Workload string
	Base     string // "64D/64", "64D/256", "RAE"
	MLPBase  float64
	MLPVP    float64
	// PerfGainPct is the modelled overall performance improvement from
	// adding value prediction (CPI model at 1000 cycles).
	PerfGainPct float64
}

// Figure9 reproduces Figure 9: impact of value prediction.
type Figure9 struct {
	Rows []Figure9Row
}

// figure9Bases returns the three base configurations of Figures 8 and 9.
func figure9Bases() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"64D/64", core.Default().WithIssue(core.ConfigD)},
		{"64D/256", core.Default().WithIssue(core.ConfigD).WithROB(256)},
		{"RAE", core.Default().WithIssue(core.ConfigD).WithRunahead()},
	}
}

// RunFigure9 executes the experiment.
func RunFigure9(s Setup) Figure9 { return run(s, planFigure9) }

// planFigure9 lists each workload's characterization at 1000 cycles,
// then every base configuration without and with value prediction.
func planFigure9(s Setup) ([]Point, func([]Result) Figure9) {
	bases := figure9Bases()
	nw := len(s.Workloads)
	var points []Point
	for _, w := range s.Workloads {
		points = append(points, charPoint(w, cyclesim.Default(1000)))
	}
	for _, w := range s.Workloads {
		for _, b := range bases {
			vp := b.cfg
			vp.ValuePredict = true
			points = append(points,
				Point{Kind: EngineRun, Workload: w, Engine: b.cfg},
				Point{Kind: EngineRun, Workload: w, Engine: vp,
					Annot: annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}})
		}
	}
	return points, func(rs []Result) Figure9 {
		var rows []Figure9Row
		for i := nw; i < len(points); i += 2 {
			wi, bi := (i-nw)/2/len(bases), (i-nw)/2%len(bases)
			base, withVP := &rs[i].Engine, &rs[i+1].Engine
			p := characterization(points[wi], rs[wi]).Params()
			baseCPI := p.Estimate(base.MLP())
			vpCPI := p.Estimate(withVP.MLP())
			rows = append(rows, Figure9Row{
				Workload:    s.Workloads[wi].Name,
				Base:        bases[bi].name,
				MLPBase:     base.MLP(),
				MLPVP:       withVP.MLP(),
				PerfGainPct: 100 * (baseCPI/vpCPI - 1),
			})
		}
		return Figure9{Rows: rows}
	}
}

// String renders the comparison.
func (f Figure9) String() string {
	tb := newTable("Figure 9: Impact of Value Prediction (last-value, missing loads only)")
	tb.row("Workload", "Base", "MLP", "MLP+VP", "Perf gain")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%.1f%%", r.Workload, r.Base, f2(r.MLPBase), f2(r.MLPVP), r.PerfGainPct)
	}
	return tb.String()
}
