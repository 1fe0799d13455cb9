// Package smt models memory-level parallelism on a multithreaded
// processor — the first future-work item of the paper's §7 ("studying MLP
// for multithreaded processors").
//
// Model. K hardware threads run independent workloads. They share the
// cache hierarchy (so they contend for L2 capacity: per-thread miss rates
// rise with thread count) but have private branch-predictor state, and
// each thread's instruction stream is partitioned into epochs by its own
// epoch-model engine. Threads interleave at a fixed fetch granule, which
// determines the order their accesses train the shared caches.
//
// Because the epoch model is timing free, inter-thread overlap is
// reported as a pair of bounds rather than a single number:
//
//   - CombinedUpper assumes perfect latency overlap across threads (when
//     one thread stalls on an epoch, the others run): total accesses
//     divided by the largest per-thread epoch count.
//   - CombinedLower assumes no inter-thread overlap (a switch-on-event
//     machine that still cannot hide anything): total accesses divided by
//     the sum of epoch counts — the access-weighted mean of the
//     per-thread MLPs.
//
// A real SMT lands between the bounds; the gap itself measures how much
// MLP multithreading can add for the workload mix.
package smt

import (
	"fmt"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/mem"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

// Config parameterizes one SMT simulation.
type Config struct {
	// Threads are the per-thread workloads (2-8 typical).
	Threads []workload.Config
	// Granule is the interleave granularity in instructions (default 64:
	// a fetch-buffer's worth per thread turn).
	Granule int
	// Processor is the per-thread epoch-model configuration.
	Processor core.Config
	// Hierarchy is the shared cache configuration (zero = paper default).
	Hierarchy mem.HierarchyConfig
	// Warmup and Measure are per-thread instruction counts.
	Warmup, Measure int64
}

// Validate reports configuration errors. A zero Measure is valid — Run
// degrades to an all-zero Result — so callers that split an instruction
// budget across many threads (budget / K rounding to zero) stay safe.
func (c *Config) Validate() error {
	if len(c.Threads) == 0 {
		return fmt.Errorf("smt: no threads configured")
	}
	if c.Granule < 0 {
		return fmt.Errorf("smt: negative granule %d", c.Granule)
	}
	if c.Measure < 0 {
		return fmt.Errorf("smt: negative measure %d", c.Measure)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("smt: negative warmup %d", c.Warmup)
	}
	return nil
}

// Result summarizes one SMT run.
type Result struct {
	// PerThread holds each thread's epoch-model result under the shared
	// hierarchy.
	PerThread []core.Result
	// SoloMLP holds each thread's MLP when running alone (private
	// hierarchy), for interference comparison.
	SoloMLP []float64
	// SoloMissRate and SharedMissRate report the cache-contention effect
	// per thread (off-chip accesses per 100 instructions).
	SoloMissRate, SharedMissRate []float64
	// CombinedUpper and CombinedLower bound the machine MLP (see the
	// package comment).
	CombinedUpper, CombinedLower float64
}

// interleaver round-robins instruction granules from per-thread sources
// and remembers which thread produced the last instruction. A source
// that dries up drops out of the rotation: the remaining threads keep
// their budget instead of the whole pass ending at the first exhausted
// thread (uneven-length mixes used to lose every longer thread's tail).
type interleaver struct {
	srcs    []trace.Source
	granule int
	cur     int
	left    int
	last    int
	dead    []bool
	alive   int
}

func (iv *interleaver) Next() (isa.Inst, bool) {
	if iv.dead == nil {
		iv.dead = make([]bool, len(iv.srcs))
		iv.alive = len(iv.srcs)
	}
	for iv.alive > 0 {
		if iv.left == 0 {
			iv.advance()
		}
		iv.left--
		iv.last = iv.cur
		if in, ok := iv.srcs[iv.cur].Next(); ok {
			return in, true
		}
		// The current source dried up mid-granule: retire it from the
		// rotation and hand the turn to the next live thread with a fresh
		// granule.
		iv.dead[iv.cur] = true
		iv.alive--
		iv.left = 0
	}
	return isa.Inst{}, false
}

// exhausted reports whether thread t's source has dried up: no further
// instruction labelled t will ever come.
func (iv *interleaver) exhausted(t int) bool { return iv.dead != nil && iv.dead[t] }

// advance moves cur to the next live source and refills the granule.
func (iv *interleaver) advance() {
	for {
		iv.cur = (iv.cur + 1) % len(iv.srcs)
		if !iv.dead[iv.cur] {
			break
		}
	}
	iv.left = iv.granule
}

// Run executes the SMT simulation: K solo baselines (one private-
// hierarchy pass each) plus the shared runs, which come from the same
// single interleaved pre-pass RunScheduledPolicies replays. The K
// thread engines step interleaved, so an OnEpoch callback in
// cfg.Processor sees the threads' epochs interleaved too. It panics on
// invalid configurations.
func Run(cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Granule == 0 {
		cfg.Granule = 64
	}
	k := len(cfg.Threads)
	res := Result{
		PerThread:      make([]core.Result, k),
		SoloMLP:        make([]float64, k),
		SoloMissRate:   make([]float64, k),
		SharedMissRate: make([]float64, k),
	}
	if cfg.Measure == 0 {
		// Nothing to measure: keep the per-thread slices sized so callers
		// can index them, with every metric zero.
		return res
	}

	// Solo baselines: each thread alone with a private hierarchy.
	for t := 0; t < k; t++ {
		g := workload.MustNew(cfg.Threads[t])
		a := annotate.New(g, annotate.Config{Hierarchy: cfg.Hierarchy})
		a.Warm(cfg.Warmup)
		p := cfg.Processor
		p.MaxInstructions = cfg.Measure
		r := core.NewEngine(a, p).Run()
		res.SoloMLP[t] = r.MLP()
		res.SoloMissRate[t] = r.MissRatePer100()
	}

	// Shared runs: one deterministic interleaved annotation pass,
	// demultiplexed into the K per-thread engines (see prepass.go).
	traces := buildThreadTraces(cfg)
	for t, tr := range traces {
		res.PerThread[t] = tr.res
		res.SharedMissRate[t] = tr.res.MissRatePer100()
	}
	res.CombinedLower, res.CombinedUpper = traceBounds(epochTraces(traces))
	return res
}
