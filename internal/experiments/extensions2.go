package experiments

import (
	"fmt"

	"mlpsim/internal/core"
	"mlpsim/internal/queueing"
	"mlpsim/internal/smt"
	"mlpsim/internal/workload"
)

// --- multithreaded MLP (§7 future work) -------------------------------------

// ExtSMTRow summarizes one thread-count point.
type ExtSMTRow struct {
	Threads        int
	PerThreadMLP   []float64
	CombinedLower  float64
	CombinedUpper  float64
	MissRateDeltas []float64 // shared minus solo, per thread
}

// ExtSMT sweeps hardware thread counts running database workload copies:
// per-thread MLP barely moves (and cache contention pushes miss rates
// up), but the machine-level MLP bound scales with thread count — the
// multithreading headroom §7 points at.
type ExtSMT struct {
	Rows []ExtSMTRow
}

// RunExtSMT executes the sweep.
func RunExtSMT(s Setup) ExtSMT { return run(s, planExtSMT) }

func planExtSMT(s Setup) ([]Point, func([]Result) ExtSMT) {
	base := workload.Database(s.Seed)
	if len(s.Workloads) > 0 {
		base = s.Workloads[0]
	}
	counts := []int{1, 2, 4}
	points := make([]Point, len(counts))
	for i, k := range counts {
		threads := make([]workload.Config, k)
		for t := range threads {
			threads[t] = base.WithSeed(s.Seed + int64(t)*101)
		}
		points[i] = Point{Kind: SMTRun, SMT: smt.SchedConfig{Config: s.smtConfig(threads)}}
	}
	return points, func(rs []Result) ExtSMT {
		rows := make([]ExtSMTRow, len(rs))
		for i, r := range rs {
			k := counts[i]
			row := ExtSMTRow{
				Threads:       k,
				CombinedLower: r.SMT.CombinedLower,
				CombinedUpper: r.SMT.CombinedUpper,
			}
			for t := 0; t < k; t++ {
				row.PerThreadMLP = append(row.PerThreadMLP, r.SMT.PerThread[t].MLP())
				row.MissRateDeltas = append(row.MissRateDeltas, r.SMT.SharedMissRate[t]-r.SMT.SoloMissRate[t])
			}
			rows[i] = row
		}
		return ExtSMT{Rows: rows}
	}
}

// smtConfig runs threads on the default processor, splitting the
// Setup's instruction budget across them but never letting the
// per-thread share round to zero while a budget exists: a K larger than
// the budget used to panic smt.Run's validation.
func (s Setup) smtConfig(threads []workload.Config) smt.Config {
	k := int64(len(threads))
	per := s.Measure / k
	if per == 0 && s.Measure > 0 {
		per = 1
	}
	return smt.Config{
		Threads:   threads,
		Processor: core.Default(),
		Warmup:    s.Warmup / k,
		Measure:   per,
	}
}

// String renders the sweep.
func (e ExtSMT) String() string {
	tb := newTable("Extension: Multithreaded MLP (§7 future work; database workload copies)")
	tb.row("Threads", "Per-thread MLP", "Combined (no overlap)", "Combined (full overlap)", "Miss-rate delta")
	for _, r := range e.Rows {
		per, deltas := "", ""
		for i := range r.PerThreadMLP {
			if i > 0 {
				per += " "
				deltas += " "
			}
			per += f2(r.PerThreadMLP[i])
			deltas += fmt.Sprintf("%+.2f", r.MissRateDeltas[i])
		}
		tb.rowf("%d\t%s\t%s\t%s\t%s", r.Threads, per, f2(r.CombinedLower), f2(r.CombinedUpper), deltas)
	}
	return tb.String()
}

// --- finite memory bandwidth (§4.1 queueing-model use case) -----------------

// ExtBandwidthRow is one (workload, channels) point.
type ExtBandwidthRow struct {
	Workload string
	Channels int
	// OffChipCPI is the off-chip CPI component under the C-channel
	// memory model; Inflation is the mean epoch memory time relative to
	// unlimited bandwidth.
	OffChipCPI float64
	Inflation  float64
}

// ExtBandwidth feeds each workload's epoch burst-size distribution (from
// a runahead run, which has the largest bursts) into the queueing model:
// high MLP is only as good as the bandwidth behind it.
type ExtBandwidth struct {
	Rows []ExtBandwidthRow
}

// ExtBandwidthChannels is the swept axis.
var ExtBandwidthChannels = []int{1, 2, 4, 8}

// RunExtBandwidth executes the experiment.
func RunExtBandwidth(s Setup) ExtBandwidth { return run(s, planExtBandwidth) }

// planExtBandwidth lists one runahead run per workload, each feeding its
// own epoch collector; the OnEpoch callbacks keep these points on the
// coordinator under sharding.
func planExtBandwidth(s Setup) ([]Point, func([]Result) ExtBandwidth) {
	collectors := make([]*queueing.Collector, len(s.Workloads))
	points := make([]Point, len(s.Workloads))
	for wi, w := range s.Workloads {
		collectors[wi] = queueing.NewCollector(64)
		cfg := core.Default().WithIssue(core.ConfigD).WithRunahead()
		cfg.OnEpoch = collectors[wi].OnEpoch
		points[wi] = Point{Kind: EngineRun, Workload: w, Engine: cfg}
	}
	return points, func(rs []Result) ExtBandwidth {
		var rows []ExtBandwidthRow
		for wi, w := range s.Workloads {
			c, insts := collectors[wi], rs[wi].Engine.Instructions
			for _, ch := range ExtBandwidthChannels {
				m := queueing.Model{Channels: ch, ServiceCycles: 120, LeadCycles: 880}
				rows = append(rows, ExtBandwidthRow{
					Workload:   w.Name,
					Channels:   ch,
					OffChipCPI: c.OffChipCPI(m, insts),
					Inflation:  c.EffectivePenaltyInflation(m),
				})
			}
		}
		return ExtBandwidth{Rows: rows}
	}
}

// String renders the experiment.
func (e ExtBandwidth) String() string {
	tb := newTable("Extension: Finite Memory Bandwidth under Runahead (queueing model, 880+120-cycle lines)")
	tb.row("Workload", "Channels", "Off-chip CPI", "Epoch-time inflation")
	for _, r := range e.Rows {
		tb.rowf("%s\t%d\t%s\t%sx", r.Workload, r.Channels, f2(r.OffChipCPI), f2(r.Inflation))
	}
	return tb.String()
}
