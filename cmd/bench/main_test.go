package main

import (
	"strings"
	"testing"
)

func sweepWithPeaks(cached, mapped int64) *sweepResult {
	return &sweepResult{CachedHeapPeakBytes: cached, MappedHeapPeakBytes: mapped}
}

func TestGateViolations(t *testing.T) {
	old := report{
		Benchmarks: map[string]benchResult{
			"AnnotateStream": {NsPerOp: 100},
			"ReplayStream":   {NsPerOp: 10},
		},
		Sweep: sweepWithPeaks(1000, 100),
	}

	t.Run("clean", func(t *testing.T) {
		cur := report{
			Benchmarks: map[string]benchResult{
				"AnnotateStream": {NsPerOp: 110},
				"ReplayStream":   {NsPerOp: 9},
			},
			Sweep: sweepWithPeaks(1100, 100),
		}
		if v := gateViolations(old, cur, 50); len(v) != 0 {
			t.Errorf("expected no violations, got %v", v)
		}
	})

	t.Run("nsPerOpRegression", func(t *testing.T) {
		cur := report{
			Benchmarks: map[string]benchResult{
				"AnnotateStream": {NsPerOp: 100},
				"ReplayStream":   {NsPerOp: 20}, // +100%
			},
			Sweep: sweepWithPeaks(1000, 100),
		}
		v := gateViolations(old, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "ReplayStream") {
			t.Errorf("expected one ReplayStream violation, got %v", v)
		}
	})

	t.Run("heapPeakRegression", func(t *testing.T) {
		cur := report{
			Benchmarks: map[string]benchResult{
				"AnnotateStream": {NsPerOp: 100},
				"ReplayStream":   {NsPerOp: 10},
			},
			Sweep: sweepWithPeaks(1000, 200), // mapped peak doubled
		}
		v := gateViolations(old, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "mapped sweep") {
			t.Errorf("expected one mapped-sweep violation, got %v", v)
		}
	})

	t.Run("missingFieldsTolerated", func(t *testing.T) {
		// Baselines from older schemas have no sweep and no benchmark map
		// at all: everything in the current report passes, never panics.
		v := gateViolations(report{}, report{
			Benchmarks: map[string]benchResult{"New": {NsPerOp: 1e9}},
			Sweep:      sweepWithPeaks(1, 1),
		}, 1)
		if len(v) != 0 {
			t.Errorf("expected no violations with empty baseline, got %v", v)
		}
	})

	t.Run("newBenchmarkFlagged", func(t *testing.T) {
		// A benchmark absent from a NON-empty baseline used to pass the
		// gate silently forever; it must be reported until the baseline is
		// refreshed.
		cur := report{
			Benchmarks: map[string]benchResult{
				"AnnotateStream": {NsPerOp: 100},
				"ReplayStream":   {NsPerOp: 10},
				"StoreSetSweep":  {NsPerOp: 1e9},
			},
			Sweep: sweepWithPeaks(1000, 100),
		}
		v := gateViolations(old, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "StoreSetSweep") || !strings.Contains(v[0], "no baseline entry") {
			t.Errorf("expected one no-baseline-entry violation for StoreSetSweep, got %v", v)
		}
	})

	t.Run("missingFromRunFlagged", func(t *testing.T) {
		// The reverse direction: a baseline benchmark the current run no
		// longer produces (renamed or dropped) must fail too.
		cur := report{
			Benchmarks: map[string]benchResult{"AnnotateStream": {NsPerOp: 100}},
			Sweep:      sweepWithPeaks(1000, 100),
		}
		v := gateViolations(old, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "ReplayStream") || !strings.Contains(v[0], "missing from this run") {
			t.Errorf("expected one missing-from-run violation for ReplayStream, got %v", v)
		}
	})

	t.Run("zeroBaselineFlagged", func(t *testing.T) {
		// A zero ns/op baseline entry must neither divide by zero nor
		// silently disable the gate for that benchmark.
		zeroOld := report{Benchmarks: map[string]benchResult{"AnnotateStream": {NsPerOp: 0}}}
		cur := report{Benchmarks: map[string]benchResult{"AnnotateStream": {NsPerOp: 100}}}
		v := gateViolations(zeroOld, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "AnnotateStream") || !strings.Contains(v[0], "cannot gate") {
			t.Errorf("expected one cannot-gate violation for the zero baseline, got %v", v)
		}
	})

	t.Run("unbracketedStoreSetsFlagged", func(t *testing.T) {
		cur := report{StoreSets: &storeSetsResult{Rows: 24, Bracketed: false}}
		v := gateViolations(report{}, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "bracket") {
			t.Errorf("expected one bracketing violation, got %v", v)
		}
		cur.StoreSets.Bracketed = true
		if v := gateViolations(report{}, cur, 50); len(v) != 0 {
			t.Errorf("bracketed sweep must pass, got %v", v)
		}
	})

	t.Run("unbracketedSMTSchedFlagged", func(t *testing.T) {
		cur := report{SMTSched: &smtSchedResult{Rows: 18, Bracketed: false}}
		v := gateViolations(report{}, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "combined-bounds bracket") {
			t.Errorf("expected one smt-sched bracketing violation, got %v", v)
		}
		cur.SMTSched.Bracketed = true
		if v := gateViolations(report{}, cur, 50); len(v) != 0 {
			t.Errorf("bracketed smt-sched sweep must pass, got %v", v)
		}
	})

	t.Run("zeroAllocRegressionFlagged", func(t *testing.T) {
		// A zero-alloc baseline gates on allocations in kind, not degree:
		// 0 -> 1 allocs/op fails even when ns/op is well inside the limit.
		zeroOld := report{Benchmarks: map[string]benchResult{"SMTSchedule": {NsPerOp: 100, AllocsPerOp: 0}}}
		cur := report{Benchmarks: map[string]benchResult{"SMTSchedule": {NsPerOp: 100, AllocsPerOp: 1}}}
		v := gateViolations(zeroOld, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "SMTSchedule") || !strings.Contains(v[0], "zero-alloc steady state") {
			t.Errorf("expected one zero-alloc violation, got %v", v)
		}
		// An already-allocating baseline stays percent-gated only.
		allocOld := report{Benchmarks: map[string]benchResult{"SMTSchedule": {NsPerOp: 100, AllocsPerOp: 3}}}
		if v := gateViolations(allocOld, cur, 50); len(v) != 0 {
			t.Errorf("nonzero baseline must not trip the zero-alloc rule, got %v", v)
		}
	})

	t.Run("nonIdenticalShardSweepFlagged", func(t *testing.T) {
		cur := report{ShardSweep: []shardSweepResult{
			{Exhibit: "figure4", Identical: true},
			{Exhibit: "table3", Identical: false},
		}}
		v := gateViolations(report{}, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "shard sweep") || !strings.Contains(v[0], "table3") {
			t.Errorf("expected one table3 shard-sweep violation, got %v", v)
		}
		cur.ShardSweep[1].Identical = true
		if v := gateViolations(report{}, cur, 50); len(v) != 0 {
			t.Errorf("identical shard sweep must pass, got %v", v)
		}
	})

	refOld := report{Benchmarks: map[string]benchResult{
		"AnnotateStream": {NsPerOp: 100, RefNsPerOp: 2},
		"ReplayStream":   {NsPerOp: 10, RefNsPerOp: 2},
	}}

	t.Run("uniformHostSlowdownPasses", func(t *testing.T) {
		// The whole host ran 2x slower: every micro and its reference
		// doubled together, which is no regression of the code.
		cur := report{Benchmarks: map[string]benchResult{
			"AnnotateStream": {NsPerOp: 200, RefNsPerOp: 4},
			"ReplayStream":   {NsPerOp: 20, RefNsPerOp: 4},
		}}
		if v := gateViolations(refOld, cur, 50); len(v) != 0 {
			t.Errorf("a uniformly 2x slower host must pass, got %v", v)
		}
	})

	t.Run("referenceRelativeRegressionFlagged", func(t *testing.T) {
		// ReplayStream doubled while its adjacent reference did not.
		cur := report{Benchmarks: map[string]benchResult{
			"AnnotateStream": {NsPerOp: 100, RefNsPerOp: 2},
			"ReplayStream":   {NsPerOp: 20, RefNsPerOp: 2},
		}}
		v := gateViolations(refOld, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "ReplayStream") || !strings.Contains(v[0], "reference") {
			t.Errorf("expected one reference-relative ReplayStream violation, got %v", v)
		}
		// On a 2x faster host, halved ns/op is no change at all...
		cur.Benchmarks["ReplayStream"] = benchResult{NsPerOp: 5, RefNsPerOp: 1}
		cur.Benchmarks["AnnotateStream"] = benchResult{NsPerOp: 50, RefNsPerOp: 1}
		if v := gateViolations(refOld, cur, 50); len(v) != 0 {
			t.Errorf("unchanged reference units must pass, got %v", v)
		}
		// ...while the baseline's raw ns/op on a 4x faster host is a 4x
		// regression.
		cur.Benchmarks["ReplayStream"] = benchResult{NsPerOp: 10, RefNsPerOp: 0.5}
		if v := gateViolations(refOld, cur, 50); len(v) != 1 || !strings.Contains(v[0], "ReplayStream") {
			t.Errorf("raw-equal ns/op on a 4x faster host must fail, got %v", v)
		}
	})

	t.Run("referenceZeroAllocRegressionFlagged", func(t *testing.T) {
		// Dividing out the host's speed never forgives an allocation.
		cur := report{Benchmarks: map[string]benchResult{
			"AnnotateStream": {NsPerOp: 100, RefNsPerOp: 2, AllocsPerOp: 1},
			"ReplayStream":   {NsPerOp: 10, RefNsPerOp: 2},
		}}
		v := gateViolations(refOld, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "AnnotateStream") || !strings.Contains(v[0], "zero-alloc steady state") {
			t.Errorf("expected one zero-alloc violation, got %v", v)
		}
	})

	t.Run("baselineWithoutReferenceFallsBack", func(t *testing.T) {
		// An older baseline has no reference timings: raw ns/op gates.
		cur := report{Benchmarks: map[string]benchResult{
			"AnnotateStream": {NsPerOp: 100, RefNsPerOp: 2},
			"ReplayStream":   {NsPerOp: 20, RefNsPerOp: 4},
		}}
		v := gateViolations(old, cur, 50)
		if len(v) != 1 || !strings.Contains(v[0], "ReplayStream") || strings.Contains(v[0], "reference") {
			t.Errorf("expected one raw ns/op ReplayStream violation, got %v", v)
		}
	})

	t.Run("deterministicOrder", func(t *testing.T) {
		cur := report{
			Benchmarks: map[string]benchResult{
				"AnnotateStream": {NsPerOp: 1000},
				"ReplayStream":   {NsPerOp: 1000},
			},
		}
		v := gateViolations(old, cur, 50)
		if len(v) != 2 || !strings.Contains(v[0], "AnnotateStream") || !strings.Contains(v[1], "ReplayStream") {
			t.Errorf("expected sorted AnnotateStream,ReplayStream violations, got %v", v)
		}
	})
}
