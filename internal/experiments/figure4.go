package experiments

import "mlpsim/internal/core"

// Figure4Sizes and Figure4Configs are the sweep axes of Figures 4 and 5.
var (
	Figure4Sizes   = []int{16, 32, 64, 128, 256}
	Figure4Configs = []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC, core.ConfigD, core.ConfigE}
)

// Figure4Cell is one point of the ROB-size × issue-configuration sweep.
type Figure4Cell struct {
	Workload string
	Window   int
	Issue    core.IssueConfig
	MLP      float64
	Result   core.Result
}

// Figure4 reproduces Figure 4 (MLP vs ROB/issue-window size and issue
// constraints); its raw results also carry the Figure 5 limiter
// statistics.
type Figure4 struct {
	Cells []Figure4Cell

	// idx maps (workload, window, issue) to a Cells position; built
	// lazily on first Lookup. Cells are write-once after RunFigure4, so
	// the index never needs invalidation.
	idx map[figure4Key]int
}

type figure4Key struct {
	workload string
	window   int
	issue    core.IssueConfig
}

// RunFigure4 executes the sweep.
func RunFigure4(s Setup) Figure4 { return run(s, planFigure4) }

func planFigure4(s Setup) ([]Point, func([]Result) Figure4) {
	var points []Point
	for _, w := range s.Workloads {
		for _, size := range Figure4Sizes {
			for _, ic := range Figure4Configs {
				points = append(points, Point{Kind: EngineRun, Workload: w,
					Engine: core.Default().WithWindow(size).WithIssue(ic)})
			}
		}
	}
	return points, func(rs []Result) Figure4 {
		cells := make([]Figure4Cell, len(rs))
		for i, p := range points {
			cells[i] = Figure4Cell{
				Workload: p.Workload.Name,
				Window:   p.Engine.ROB,
				Issue:    p.Engine.Issue,
				MLP:      rs[i].Engine.MLP(),
				Result:   rs[i].Engine,
			}
		}
		return Figure4{Cells: cells}
	}
}

// Lookup returns the cell for (workload, window, config), or nil. The
// first call indexes Cells so that rendering the full matrix is linear
// in the number of cells rather than quadratic.
func (f *Figure4) Lookup(workload string, window int, ic core.IssueConfig) *Figure4Cell {
	if f.idx == nil {
		f.idx = make(map[figure4Key]int, len(f.Cells))
		for i := range f.Cells {
			c := &f.Cells[i]
			f.idx[figure4Key{c.Workload, c.Window, c.Issue}] = i
		}
	}
	if i, ok := f.idx[figure4Key{workload, window, ic}]; ok {
		return &f.Cells[i]
	}
	return nil
}

// String renders one MLP matrix per workload.
func (f Figure4) String() string {
	tb := newTable("Figure 4: Impact of ROB Size and Issuing Constraints (MLP)")
	header := []string{"Workload", "ROB/IW"}
	for _, ic := range Figure4Configs {
		header = append(header, ic.String())
	}
	tb.row(header...)
	seen := map[string]bool{}
	var order []string
	for _, c := range f.Cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			order = append(order, c.Workload)
		}
	}
	for _, wname := range order {
		for _, size := range Figure4Sizes {
			cells := []string{wname, itoa(size)}
			for _, ic := range Figure4Configs {
				if c := f.Lookup(wname, size, ic); c != nil {
					cells = append(cells, f2(c.MLP))
				} else {
					cells = append(cells, "-")
				}
			}
			tb.row(cells...)
		}
	}
	return tb.String() + "\n" + f.Chart()
}
