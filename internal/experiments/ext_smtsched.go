package experiments

// Scheduled SMT fetch policies (§7 direction, Durbhakula): where ext-smt
// reports the timing-free no-overlap/full-overlap bracket, this exhibit
// actually arbitrates the shared fetch unit under three policies
// (round-robin, ICOUNT-like, MLP-aware) and reports where each lands
// inside the bracket, plus per-thread fairness. The per-thread epoch
// traces are schedule-independent, so each sweep point runs its one
// expensive interleaved annotation pass (shared by all K thread
// engines) once and replays the traces under every policy.

import (
	"mlpsim/internal/smt"
	"mlpsim/internal/workload"
)

// ExtSMTSchedRow is one (mix, thread count, policy) point.
type ExtSMTSchedRow struct {
	Mix           string
	Threads       int
	Policy        string
	AggMLP        float64
	CombinedLower float64
	CombinedUpper float64
	MinShare      float64
	MaxShare      float64
	Switches      uint64
	Bursts        uint64
	Overlapped    uint64
	FloorPicks    uint64
}

// ExtSMTSched is the scheduled-SMT policy sweep.
type ExtSMTSched struct {
	Rows []ExtSMTSchedRow
}

// ExtSMTSchedThreads is the swept thread-count axis.
var ExtSMTSchedThreads = []int{2, 4, 8}

// extSMTSchedMixes returns the swept workload mixes: a heterogeneous
// rotation over the setup's workloads (database/SPECjbb/SPECweb by
// default) and a homogeneous mix of first-workload copies. Thread t
// always reseeds its workload so copies stay decorrelated.
func extSMTSchedMixes(s Setup) []struct {
	Name string
	Pick func(t int) workload.Config
} {
	rotation := s.Workloads
	if len(rotation) == 0 {
		rotation = workload.Presets(s.Seed)
	}
	base := rotation[0]
	return []struct {
		Name string
		Pick func(t int) workload.Config
	}{
		{"hetero", func(t int) workload.Config {
			return rotation[t%len(rotation)].WithSeed(s.Seed + int64(t)*101)
		}},
		{"homo-" + base.Name, func(t int) workload.Config {
			return base.WithSeed(s.Seed + int64(t)*101)
		}},
	}
}

// RunExtSMTSched executes the sweep: policy x thread count x mix, with
// the per-thread instruction budget split like ext-smt (budget/K,
// floored at one while a budget exists).
func RunExtSMTSched(s Setup) ExtSMTSched { return run(s, planExtSMTSched) }

func planExtSMTSched(s Setup) ([]Point, func([]Result) ExtSMTSched) {
	mixes := extSMTSchedMixes(s)
	var points []Point
	for _, mix := range mixes {
		for _, k := range ExtSMTSchedThreads {
			threads := make([]workload.Config, k)
			for t := range threads {
				threads[t] = mix.Pick(t)
			}
			points = append(points, Point{Kind: SMTSchedule,
				SMT: smt.SchedConfig{Config: s.smtConfig(threads)}, Policies: smt.PolicyNames()})
		}
	}
	return points, func(rs []Result) ExtSMTSched {
		var rows []ExtSMTSchedRow
		for i, res := range rs {
			for _, r := range res.Sched {
				rows = append(rows, ExtSMTSchedRow{
					Mix:           mixes[i/len(ExtSMTSchedThreads)].Name,
					Threads:       len(points[i].SMT.Threads),
					Policy:        r.Policy,
					AggMLP:        r.AggMLP,
					CombinedLower: r.CombinedLower,
					CombinedUpper: r.CombinedUpper,
					MinShare:      r.MinShare,
					MaxShare:      r.MaxShare,
					Switches:      r.Switches,
					Bursts:        r.Bursts,
					Overlapped:    r.Overlapped,
					FloorPicks:    r.FloorPicks,
				})
			}
		}
		return ExtSMTSched{Rows: rows}
	}
}

// String renders the sweep.
func (e ExtSMTSched) String() string {
	tb := newTable("Extension: MLP-Aware SMT Fetch Scheduling (policies inside the ext-smt bounds)")
	tb.row("Mix", "K", "Policy", "AggMLP", "Lower", "Upper", "MinShare", "MaxShare", "Overlapped")
	for _, r := range e.Rows {
		tb.rowf("%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%d",
			r.Mix, r.Threads, r.Policy, f2(r.AggMLP), f2(r.CombinedLower), f2(r.CombinedUpper),
			f3(r.MinShare), f3(r.MaxShare), r.Overlapped)
	}
	return tb.String()
}
