package experiments

import (
	"mlpsim/internal/cpi"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/workload"
)

// Characterization is the Table 1 description of one workload at one
// off-chip latency: the measured CPI decomposition and the CPI-model
// parameters derived from it (§2.2).
type Characterization struct {
	Workload       string
	Penalty        int
	CPI            float64 // measured by the cycle simulator
	CPIPerf        float64 // measured with a perfect L2
	CPIOnChip      float64
	CPIOffChip     float64
	MissRatePer100 float64
	MLP            float64 // cycle-simulator MLP(t) average
	OverlapCM      float64
}

// Params returns the CPI-model parameters implied by the
// characterization.
func (c Characterization) Params() cpi.Params {
	return cpi.Params{
		CPIPerf:        c.CPIPerf,
		OverlapCM:      c.OverlapCM,
		MissRatePer100: c.MissRatePer100,
		MissPenalty:    float64(c.Penalty),
	}
}

// charPoint is the work behind one characterization: cfg and its
// perfect-L2 twin as one cycle-simulator gang over w's stream.
func charPoint(w workload.Config, cfg cyclesim.Config) Point {
	perfect := cfg
	perfect.PerfectL2 = true
	return Point{Kind: CycleGang, Workload: w, Cycle: []cyclesim.Config{cfg, perfect}}
}

// characterization derives a charPoint's CPI decomposition, with
// Overlap_CM from the CPI equation exactly as §2.2 prescribes.
func characterization(p Point, r Result) Characterization {
	meas, perf := r.Cycle[0], r.Cycle[1]
	c := Characterization{
		Workload:       p.Workload.Name,
		Penalty:        p.Cycle[0].MissPenalty,
		CPI:            meas.CPI(),
		CPIPerf:        perf.CPI(),
		MissRatePer100: meas.MissRatePer100(),
		MLP:            meas.MLP,
	}
	c.OverlapCM = cpi.DeriveOverlap(c.CPI, c.CPIPerf, c.MissRatePer100, float64(c.Penalty), c.MLP)
	c.CPIOnChip = c.CPIPerf * (1 - c.OverlapCM)
	c.CPIOffChip = c.CPI - c.CPIOnChip
	return c
}

// Table1 reproduces Table 1: on-chip and off-chip CPI components for each
// workload at 200- and 1000-cycle off-chip latencies.
type Table1 struct {
	Rows []Characterization
}

// RunTable1 executes the experiment.
func RunTable1(s Setup) Table1 { return run(s, planTable1) }

func planTable1(s Setup) ([]Point, func([]Result) Table1) {
	var points []Point
	for _, w := range s.Workloads {
		for _, p := range []int{200, 1000} {
			points = append(points, charPoint(w, cyclesim.Default(p)))
		}
	}
	return points, func(rs []Result) Table1 {
		rows := make([]Characterization, len(rs))
		for i, r := range rs {
			rows[i] = characterization(points[i], r)
		}
		return Table1{Rows: rows}
	}
}

// String renders the table in the paper's column order.
func (t Table1) String() string {
	tb := newTable("Table 1: Measurements of On-Chip and Off-Chip Components of CPI")
	tb.row("Benchmark", "Off-Chip Latency", "CPI", "CPI_on-chip", "CPI_off-chip",
		"L2 Miss Rate (/100 insts)", "MLP", "Overlap_CM")
	for _, r := range t.Rows {
		tb.rowf("%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Penalty, f2(r.CPI), f2(r.CPIOnChip), f2(r.CPIOffChip),
			f2(r.MissRatePer100), f2(r.MLP), f2(r.OverlapCM))
	}
	return tb.String()
}
