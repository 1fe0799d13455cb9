package smt

import (
	"fmt"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

// threadFilter is the reference pre-pass's source: a fresh deterministic
// interleaved annotation pass that yields only one thread's annotated
// instructions, up to its budget or until its source dries up. (The
// filter once lacked the dried-up check, so a finite thread among
// endless ones spun forever; only the endless workload generators ever
// reached it.)
type threadFilter struct {
	iv     *interleaver
	ann    *annotate.Annotator
	thread int
	budget int64
}

func (f *threadFilter) Next() (annotate.Inst, bool) {
	for f.budget > 0 && !f.iv.exhausted(f.thread) {
		in, ok := f.ann.Next()
		if !ok {
			return annotate.Inst{}, false
		}
		if f.iv.last == f.thread {
			f.budget--
			return in, true
		}
	}
	return annotate.Inst{}, false
}

// perThreadPasses is the pre-pass as it was before the shared demux:
// one full interleaved annotation pass per thread, filtered to that
// thread, each engine stepped alone. newSrcs builds a fresh set of
// thread sources for every pass.
func perThreadPasses(newSrcs func() []trace.Source, cfg Config) []threadTrace {
	k := len(newSrcs())
	out := make([]threadTrace, k)
	for t := 0; t < k; t++ {
		iv := &interleaver{srcs: newSrcs(), granule: cfg.Granule, cur: -1}
		ann := annotate.New(iv, annotate.Config{Hierarchy: cfg.Hierarchy})
		ann.Warm(cfg.Warmup * int64(k))
		filt := &threadFilter{iv: iv, ann: ann, thread: t, budget: cfg.Measure}
		p := cfg.Processor
		p.MaxInstructions = cfg.Measure
		st := core.NewStepper(filt, p)
		var prevFetch int64
		var prevAcc uint64
		for st.Step() {
			out[t].epochs = append(out[t].epochs, EpochRec{
				Insts:     st.Fetched() - prevFetch,
				Accesses:  st.Accesses() - prevAcc,
				Unretired: st.Unretired(),
			})
			prevFetch, prevAcc = st.Fetched(), st.Accesses()
		}
		out[t].res = st.Finish()
	}
	return out
}

// limitSource ends a source after n instructions.
type limitSource struct {
	src trace.Source
	n   int
}

func (s *limitSource) Next() (isa.Inst, bool) {
	if s.n == 0 {
		return isa.Inst{}, false
	}
	s.n--
	return s.src.Next()
}

// unevenLengths are the per-thread lengths of unevenSources.
var unevenLengths = []int{10, 3, 7}

// unevenSources are TestInterleaverUnevenMix's three finite threads:
// thread th yields PCs th*1000, th*1000+1, ...
func unevenSources() []trace.Source {
	srcs := make([]trace.Source, len(unevenLengths))
	for th, n := range unevenLengths {
		insts := make([]isa.Inst, n)
		for i := range insts {
			insts[i] = isa.Inst{PC: uint64(th*1000 + i)}
		}
		srcs[th] = &sliceSource{insts: insts}
	}
	return srcs
}

// TestOnePassMatchesPerThreadPasses pins the shared demultiplexed
// pre-pass bit-identical to the per-thread filtered passes it replaced:
// every thread's engine result and epoch records, across thread counts,
// granules, budgets, and mixes whose sources dry up mid-run.
func TestOnePassMatchesPerThreadPasses(t *testing.T) {
	workloadMix := func(k int) func() []trace.Source {
		presets := workload.Presets(3)
		return func() []trace.Source {
			srcs := make([]trace.Source, k)
			for i := range srcs {
				srcs[i] = workload.MustNew(presets[i%len(presets)].WithSeed(3 + int64(i)*101))
			}
			return srcs
		}
	}
	// A workload mix whose thread 1 dries up during the measured run
	// while threads 0 and 2 keep going.
	truncatedMix := func() []trace.Source {
		srcs := workloadMix(3)()
		srcs[1] = &limitSource{src: srcs[1], n: 4_000}
		return srcs
	}
	type mix struct {
		name   string
		srcs   func() []trace.Source
		warmup int64
	}
	var mixes []mix
	for _, k := range []int{1, 2, 3, 8} {
		mixes = append(mixes, mix{fmt.Sprintf("presets-K%d", k), workloadMix(k), 2_000})
	}
	mixes = append(mixes,
		mix{"uneven", unevenSources, 2},
		mix{"truncated", truncatedMix, 1_000})

	for _, m := range mixes {
		for _, granule := range []int{1, 7, 64} {
			for _, measure := range []int64{1, 17, 5_000} {
				cfg := Config{
					Granule:   granule,
					Processor: core.Default(),
					Warmup:    m.warmup,
					Measure:   measure,
				}
				want := perThreadPasses(m.srcs, cfg)
				got := demuxTraces(m.srcs(), cfg)
				for th := range want {
					if !reflect.DeepEqual(got[th].res, want[th].res) {
						t.Fatalf("%s granule %d measure %d thread %d: result diverged:\n got %+v\nwant %+v",
							m.name, granule, measure, th, got[th].res, want[th].res)
					}
					if !reflect.DeepEqual(got[th].epochs, want[th].epochs) {
						t.Fatalf("%s granule %d measure %d thread %d: %d epoch records, want %d (or contents differ)",
							m.name, granule, measure, th, len(got[th].epochs), len(want[th].epochs))
					}
				}
			}
		}
	}
}

// TestPrePassQueuesStayBounded pins the driver's queue bound: stepping
// the thread that has fetched least keeps every per-thread queue near
// one epoch's span of the stream. An ext-smtsched K=8 point over the
// presets at the quick scale (warmup 300k, measure 1M split across
// threads) must never buffer more than Measure/8 instructions in one
// queue. The queue depth is a pure function of the seed, so the bound
// is exact, not timing-based.
func TestPrePassQueuesStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale K=8 pre-pass")
	}
	const k, warmup, measure = 8, 300_000, 1_000_000
	presets := workload.Presets(1)
	threads := make([]workload.Config, k)
	for i := range threads {
		threads[i] = presets[i%len(presets)].WithSeed(1 + int64(i)*101)
	}
	cfg := SchedConfig{Config: Config{
		Threads:   threads,
		Processor: core.Default(),
		Warmup:    warmup / k,
		Measure:   measure / k,
	}}
	peakQueued.Store(0)
	RunScheduledPolicies(cfg, PolicyNames())
	peak := peakQueued.Load()
	t.Logf("K=%d: peak queue depth %d instructions (per-thread measure %d)", k, peak, cfg.Measure)
	if peak == 0 {
		t.Fatal("no instruction was ever queued: the demux is not being exercised")
	}
	if peak > measure/8 {
		t.Fatalf("a thread queue held %d instructions, above Measure/8 = %d", peak, measure/8)
	}
}
