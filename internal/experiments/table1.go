package experiments

import (
	"mlpsim/internal/annotate"
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

// Characterize measures one workload at one latency with two cycle-
// simulator runs (realistic and perfect L2), deriving Overlap_CM from the
// CPI equation exactly as §2.2 prescribes.
func (s Setup) Characterize(w workload.Config, penalty int) Characterization {
	c := s.characterize(w, cyclesim.Default(penalty))
	c.CPIOnChip = c.CPIPerf * (1 - c.OverlapCM)
	c.CPIOffChip = c.CPI - c.CPIOnChip
	return c
}

// characterize runs cfg and its perfect-L2 twin as one gang over w's
// stream and derives the CPI decomposition's parameters from the pair.
func (s Setup) characterize(w workload.Config, cfg cyclesim.Config) Characterization {
	perfect := cfg
	perfect.PerfectL2 = true
	res := s.RunCycleSimGang(w, []cyclesim.Config{cfg, perfect}, annotate.Config{})
	meas, perf := res[0], res[1]
	c := Characterization{
		Workload:       w.Name,
		Penalty:        cfg.MissPenalty,
		CPI:            meas.CPI(),
		CPIPerf:        perf.CPI(),
		MissRatePer100: meas.MissRatePer100(),
		MLP:            meas.MLP,
	}
	c.OverlapCM = cpi.DeriveOverlap(c.CPI, c.CPIPerf, c.MissRatePer100, float64(cfg.MissPenalty), c.MLP)
	return c
}

// Table1 reproduces Table 1: on-chip and off-chip CPI components for each
// workload at 200- and 1000-cycle off-chip latencies.
type Table1 struct {
	Rows []Characterization
}

// RunTable1 executes the experiment.
func RunTable1(s Setup) Table1 {
	type job struct {
		w       workload.Config
		penalty int
	}
	var jobs []job
	for _, w := range s.Workloads {
		for _, p := range []int{200, 1000} {
			jobs = append(jobs, job{w, p})
		}
	}
	rows := make([]Characterization, len(jobs))
	s.forEach(len(jobs), func(i int) {
		rows[i] = s.Characterize(jobs[i].w, jobs[i].penalty)
	})
	return Table1{Rows: rows}
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
