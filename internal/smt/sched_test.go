package smt

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/workload"
)

func TestSchedConfigValidate(t *testing.T) {
	base := Config{
		Threads: []workload.Config{workload.Database(1)},
		Measure: 100,
	}
	cases := []struct {
		name string
		cfg  SchedConfig
		ok   bool
	}{
		{"default policy", SchedConfig{Config: base}, true},
		{"round-robin", SchedConfig{Config: base, Policy: PolicyRoundRobin}, true},
		{"icount", SchedConfig{Config: base, Policy: PolicyICount}, true},
		{"mlp-aware", SchedConfig{Config: base, Policy: PolicyMLPAware}, true},
		{"explicit knobs", SchedConfig{Config: base, Policy: PolicyMLPAware, EpochLatency: 256, FairFloor: 0.2}, true},
		{"unknown policy", SchedConfig{Config: base, Policy: "fifo"}, false},
		{"zero threads", SchedConfig{Config: Config{Measure: 100}}, false},
		{"negative granule", SchedConfig{Config: Config{Threads: base.Threads, Measure: 100, Granule: -1}}, false},
		{"negative measure", SchedConfig{Config: Config{Threads: base.Threads, Measure: -1}}, false},
		{"negative latency", SchedConfig{Config: base, EpochLatency: -1}, false},
		{"floor at one", SchedConfig{Config: base, FairFloor: 1}, false},
		{"negative floor", SchedConfig{Config: base, FairFloor: -0.1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

// synthTraces builds K random epoch traces mixing plain fetch epochs,
// miss-burst epochs and zero-fetch drain epochs.
func synthTraces(rng *rand.Rand, k int) [][]EpochRec {
	traces := make([][]EpochRec, k)
	for t := range traces {
		n := 5 + rng.Intn(120)
		tr := make([]EpochRec, n)
		for i := range tr {
			e := EpochRec{Unretired: int64(rng.Intn(64))}
			if rng.Intn(8) > 0 {
				e.Insts = int64(1 + rng.Intn(300))
			}
			if rng.Intn(3) > 0 {
				e.Accesses = uint64(1 + rng.Intn(8))
			}
			tr[i] = e
		}
		traces[t] = tr
	}
	return traces
}

// TestSchedBracketingRandom is the core property test: for random
// traces, thread counts, granules and latencies, every policy's
// aggregate MLP lands inside the timing-free [CombinedLower,
// CombinedUpper] bracket. The bracket holds by construction of the
// busy-interval union (see the package comment in sched.go); this pins
// it against scheduler refactors.
func TestSchedBracketingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	granules := []int64{1, 16, 64, 333}
	latencies := []int64{64, 512}
	const eps = 1e-9
	for iter := 0; iter < 40; iter++ {
		k := 1 + rng.Intn(4)
		traces := synthTraces(rng, k)
		g := granules[rng.Intn(len(granules))]
		lat := latencies[rng.Intn(len(latencies))]
		for _, pol := range PolicyNames() {
			r := Schedule(traces, pol, g, lat, 0)
			if r.AggMLP < r.CombinedLower-eps || r.AggMLP > r.CombinedUpper+eps {
				t.Fatalf("iter %d k=%d g=%d lat=%d %s: AggMLP %.6f outside [%.6f, %.6f]",
					iter, k, g, lat, pol, r.AggMLP, r.CombinedLower, r.CombinedUpper)
			}
			if r.Bursts > 0 && r.AggMLP <= 0 {
				t.Fatalf("iter %d %s: %d bursts but zero AggMLP", iter, pol, r.Bursts)
			}
			if r.MinShare > r.MaxShare || r.MinShare < 0 || r.MaxShare > 1+eps {
				t.Fatalf("iter %d %s: shares [%.4f, %.4f] implausible", iter, pol, r.MinShare, r.MaxShare)
			}
			var sum float64
			for _, sh := range r.Shares {
				sum += sh
			}
			if sum > 1+eps {
				t.Fatalf("iter %d %s: shares sum to %.6f > 1", iter, pol, sum)
			}
		}
	}
}

// TestRoundRobinK1BitIdentity pins the degenerate case: with one
// thread there is nothing to schedule, so a round-robin run's
// per-thread engine result is bit-identical to a solo core.Engine run
// over the same annotated stream, and the aggregate MLP collapses onto
// both bounds. Randomized over seeds and granules (fixed source, so
// failures reproduce).
func TestRoundRobinK1BitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	granules := []int{1, 16, 64, 200}
	for iter := 0; iter < 4; iter++ {
		seed := int64(1 + rng.Intn(1000))
		granule := granules[rng.Intn(len(granules))]
		cfg := SchedConfig{
			Config: Config{
				Threads:   []workload.Config{workload.Database(seed)},
				Granule:   granule,
				Processor: core.Default(),
				Warmup:    60_000,
				Measure:   200_000,
			},
			Policy: PolicyRoundRobin,
		}
		res := RunScheduled(cfg)

		a := annotate.New(workload.MustNew(cfg.Threads[0]), annotate.Config{Hierarchy: cfg.Hierarchy})
		a.Warm(cfg.Warmup)
		p := cfg.Processor
		p.MaxInstructions = cfg.Measure
		solo := core.NewEngine(a, p).Run()

		if !reflect.DeepEqual(res.PerThread[0], solo) {
			t.Fatalf("seed %d granule %d: scheduled K=1 result diverged from solo engine:\n%+v\nvs\n%+v",
				seed, granule, res.PerThread[0], solo)
		}
		if res.AggMLP != solo.MLP() {
			t.Fatalf("seed %d granule %d: AggMLP %.9f != solo MLP %.9f", seed, granule, res.AggMLP, solo.MLP())
		}
		if res.CombinedLower != res.AggMLP || res.CombinedUpper != res.AggMLP {
			t.Fatalf("seed %d granule %d: K=1 bounds [%.9f, %.9f] should both equal %.9f",
				seed, granule, res.CombinedLower, res.CombinedUpper, res.AggMLP)
		}
		if res.MinShare != 1 || res.MaxShare != 1 {
			t.Fatalf("seed %d granule %d: K=1 shares [%.4f, %.4f], want [1, 1]", seed, granule, res.MinShare, res.MaxShare)
		}
	}
}

// TestScheduledRealTraceBracketing checks the invariants on real
// workload traces: bracketing for every policy, identical per-thread
// engine results across policies (the schedule decides when epochs run,
// not what happens inside them), and bounds matching the unscheduled
// Run definition.
func TestScheduledRealTraceBracketing(t *testing.T) {
	cfg := SchedConfig{
		Config: Config{
			Threads:   []workload.Config{workload.Database(5), workload.Web(5)},
			Processor: core.Default(),
			Warmup:    50_000,
			Measure:   150_000,
		},
	}
	results := RunScheduledPolicies(cfg, PolicyNames())
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	const eps = 1e-9
	for _, r := range results {
		if r.AggMLP < r.CombinedLower-eps || r.AggMLP > r.CombinedUpper+eps {
			t.Errorf("%s: AggMLP %.4f outside [%.4f, %.4f]", r.Policy, r.AggMLP, r.CombinedLower, r.CombinedUpper)
		}
		if r.Bursts == 0 {
			t.Errorf("%s: no bursts issued on a real trace", r.Policy)
		}
		if !reflect.DeepEqual(r.PerThread, results[0].PerThread) {
			t.Errorf("%s: per-thread results differ across policies", r.Policy)
		}
		if r.CombinedLower != results[0].CombinedLower || r.CombinedUpper != results[0].CombinedUpper {
			t.Errorf("%s: bounds differ across policies", r.Policy)
		}
	}
	// Two active threads open a bound gap, and K>1 overlap means the
	// machine should land strictly above the no-overlap floor for at
	// least one policy (mlp-aware by design).
	if results[0].CombinedUpper <= results[0].CombinedLower {
		t.Error("two active threads should open a bound gap")
	}
}

func TestScheduledZeroMeasure(t *testing.T) {
	cfg := SchedConfig{
		Config: Config{
			Threads:   []workload.Config{workload.Database(1), workload.Web(1)},
			Processor: core.Default(),
		},
		Policy: PolicyICount,
	}
	r := RunScheduled(cfg)
	if len(r.PerThread) != 2 || len(r.Shares) != 2 {
		t.Fatalf("zero-measure slices missized: %+v", r)
	}
	if r.AggMLP != 0 || r.Bursts != 0 || r.Policy != PolicyICount {
		t.Fatalf("zero-measure result not empty: %+v", r)
	}
}

// TestSchedDeterminism pins that two runs of the same scheduled config
// produce identical results — the scheduler state is all slices and
// deterministic tie-breaks, with no map-iteration-order leakage.
func TestSchedDeterminism(t *testing.T) {
	cfg := SchedConfig{
		Config: Config{
			Threads:   []workload.Config{workload.Web(9), workload.JBB(9)},
			Processor: core.Default(),
			Warmup:    40_000,
			Measure:   120_000,
		},
		Policy: PolicyMLPAware,
	}
	a, b := RunScheduled(cfg), RunScheduled(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scheduled run not deterministic:\n%+v\nvs\n%+v", a, b)
	}

	rng := rand.New(rand.NewSource(3))
	traces := synthTraces(rng, 3)
	for _, pol := range PolicyNames() {
		x := Schedule(traces, pol, 64, 512, 0)
		y := Schedule(traces, pol, 64, 512, 0)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: pure schedule replay not deterministic", pol)
		}
	}
}

// TestMLPAwareFairnessFloor is the fairness regression test: at Quick
// scale, on a homogeneous four-thread database mix, the mlp-aware
// policy's anti-starvation floor (default 0.5/K = 0.125) keeps every
// thread's fetch share at or above 90% of the floor.
func TestMLPAwareFairnessFloor(t *testing.T) {
	threads := make([]workload.Config, 4)
	for i := range threads {
		threads[i] = workload.Database(1).WithSeed(1 + int64(i)*101)
	}
	cfg := SchedConfig{
		Config: Config{
			Threads:   threads,
			Processor: core.Default(),
			Warmup:    50_000,
			Measure:   150_000,
		},
		Policy: PolicyMLPAware,
	}
	r := RunScheduled(cfg)
	floor := 0.5 / float64(len(threads))
	if r.MinShare < floor*0.9 {
		t.Fatalf("mlp-aware starved a thread: min share %.4f below 90%% of floor %.4f (shares %v, %d floor picks)",
			r.MinShare, floor, r.Shares, r.FloorPicks)
	}
}

// TestPolicyPicks unit-tests each policy's ranking on hand-built ready
// sets.
func TestPolicyPicks(t *testing.T) {
	rr, _ := NewPolicy(PolicyRoundRobin, 4, 0)
	// First grant goes to the lowest index, then rotation continues from
	// the last grant even when that thread has left the ready set.
	ready := []ThreadState{{Thread: 2}, {Thread: 0}, {Thread: 3}}
	if got := ready[rr.Pick(ready)].Thread; got != 0 {
		t.Fatalf("round-robin first pick thread %d, want 0", got)
	}
	ready = []ThreadState{{Thread: 3}, {Thread: 2}}
	if got := ready[rr.Pick(ready)].Thread; got != 2 {
		t.Fatalf("round-robin after 0 picked %d, want 2", got)
	}

	ic, _ := NewPolicy(PolicyICount, 4, 0)
	ready = []ThreadState{
		{Thread: 0, Unretired: 40},
		{Thread: 1, Unretired: 10, Fetched: 9},
		{Thread: 2, Unretired: 10, Fetched: 5},
	}
	if got := ready[ic.Pick(ready)].Thread; got != 2 {
		t.Fatalf("icount picked %d, want 2 (fewest unretired, least fetched)", got)
	}

	ma, _ := NewPolicy(PolicyMLPAware, 2, 0.25)
	// Un-issued epochs beat issued ones, densest first.
	ready = []ThreadState{
		{Thread: 0, Issued: true, Share: 0.5, MissDensity: 0.9},
		{Thread: 1, Issued: false, Share: 0.5, MissDensity: 0.1},
	}
	if got := ready[ma.Pick(ready)].Thread; got != 1 {
		t.Fatalf("mlp-aware picked %d, want the un-issued thread 1", got)
	}
	// The starvation floor overrides everything.
	ready = []ThreadState{
		{Thread: 0, Issued: false, Share: 0.8, MissDensity: 0.9},
		{Thread: 1, Issued: true, Share: 0.2},
	}
	if got := ready[ma.Pick(ready)].Thread; got != 1 {
		t.Fatalf("mlp-aware picked %d, want the starved thread 1", got)
	}
	// All mid-flight: the epoch closest to its boundary runs.
	ready = []ThreadState{
		{Thread: 0, Issued: true, Share: 0.5, EpochLeft: 100},
		{Thread: 1, Issued: true, Share: 0.5, EpochLeft: 7},
	}
	if got := ready[ma.Pick(ready)].Thread; got != 1 {
		t.Fatalf("mlp-aware picked %d, want thread 1 (closest to epoch boundary)", got)
	}

	if _, err := NewPolicy("lottery", 2, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// sliceSource is a finite trace for the interleaver exhaustion test.
type sliceSource struct {
	insts []isa.Inst
	i     int
}

func (s *sliceSource) Next() (isa.Inst, bool) {
	if s.i >= len(s.insts) {
		return isa.Inst{}, false
	}
	s.i++
	return s.insts[s.i-1], true
}

// TestInterleaverUnevenMix pins the exhaustion bugfix: when one source
// dries up mid-granule the remaining threads keep their budget — every
// instruction of every thread is delivered, in per-thread order, with
// iv.last attributing each one correctly. (The pre-fix interleaver
// ended the whole pass at the first exhausted source.)
func TestInterleaverUnevenMix(t *testing.T) {
	lengths := unevenLengths
	srcs := unevenSources()
	total := 0
	for _, n := range lengths {
		total += n
	}
	// Granule 4 does not divide 3 or 7: both short threads die
	// mid-granule.
	iv := &interleaver{srcs: srcs, granule: 4, cur: -1}
	counts := make([]int, len(lengths))
	nextPC := []uint64{0, 1000, 2000}
	got := 0
	for {
		in, ok := iv.Next()
		if !ok {
			break
		}
		if in.PC != nextPC[iv.last] {
			t.Fatalf("thread %d out of order: PC %d, want %d", iv.last, in.PC, nextPC[iv.last])
		}
		nextPC[iv.last]++
		counts[iv.last]++
		got++
		if got > total {
			t.Fatal("interleaver yielded more instructions than the sources hold")
		}
	}
	for th, n := range lengths {
		if counts[th] != n {
			t.Fatalf("thread %d delivered %d of %d instructions (counts %v)", th, counts[th], n, counts)
		}
	}
}
