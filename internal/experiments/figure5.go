package experiments

import "mlpsim/internal/core"

// Figure5 reproduces Figure 5: for each (workload, window, config) of the
// Figure 4 sweep, the relative frequency of the conditions preventing
// more MLP in an epoch.
type Figure5 struct {
	Cells []Figure4Cell
}

// RunFigure5 executes the sweep.
func RunFigure5(s Setup) Figure5 { return run(s, planFigure5) }

// planFigure5 is Figure 4's plan, rendered as limiter shares.
func planFigure5(s Setup) ([]Point, func([]Result) Figure5) {
	points, render := planFigure4(s)
	return points, func(rs []Result) Figure5 { return Figure5{Cells: render(rs).Cells} }
}

// paperLimiters are the Figure 5 bar segments in the paper's order.
var paperLimiters = []core.Limiter{
	core.LimImissStart, core.LimMaxwin, core.LimMispredBr, core.LimImissEnd,
	core.LimMissingLoad, core.LimDepStore, core.LimSerialize,
}

// String renders the limiter shares.
func (f Figure5) String() string {
	tb := newTable("Figure 5: Factors Inhibiting Further MLP (fraction of epochs)")
	header := []string{"Workload", "Size+Config"}
	for _, l := range paperLimiters {
		header = append(header, l.String())
	}
	header = append(header, "Other")
	tb.row(header...)
	for _, c := range f.Cells {
		fr := c.Result.LimiterFracs()
		cells := []string{c.Workload, itoa(c.Window) + c.Issue.String()}
		covered := 0.0
		for _, l := range paperLimiters {
			cells = append(cells, pct(fr[l]))
			covered += fr[l]
		}
		cells = append(cells, pct(1-covered))
		tb.row(cells...)
	}
	return tb.String()
}
