package smt

// The shared-hierarchy pre-pass: one interleaved annotation pass feeds K
// per-thread engines.
//
// The interleaved annotated stream is a pure function of the thread
// workloads, the granule and the hierarchy — it never depends on how its
// instructions are consumed — so thread t's engine input (its first
// Measure instructions in interleaved order) is the same whether each
// thread runs its own filtered pass or all K share one. The shared pass
// annotates every instruction once and routes it by the interleaver's
// thread label into that thread's queue; each engine pulls from its own
// queue and refills through the shared annotator when the queue runs dry.

import (
	"sync/atomic"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

// threadTrace is one thread's pre-pass product: its engine result under
// the shared hierarchy plus the epoch records the scheduler replays.
type threadTrace struct {
	res    core.Result
	epochs []EpochRec
}

// epochTraces returns each thread's epoch records.
func epochTraces(traces []threadTrace) [][]EpochRec {
	raw := make([][]EpochRec, len(traces))
	for t := range traces {
		raw[t] = traces[t].epochs
	}
	return raw
}

// instQueue is a growable power-of-two ring of annotated instructions.
type instQueue struct {
	buf        []annotate.Inst
	head, tail int
	// peak is the deepest the queue has been.
	peak int
}

func (q *instQueue) push(in *annotate.Inst) {
	if q.tail-q.head == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&(len(q.buf)-1)] = *in
	q.tail++
	if n := q.tail - q.head; n > q.peak {
		q.peak = n
	}
}

// grow doubles the ring, keeping the queued instructions in order.
func (q *instQueue) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = 256
	}
	buf := make([]annotate.Inst, n)
	for i := q.head; i < q.tail; i++ {
		buf[i&(n-1)] = q.buf[i&(len(q.buf)-1)]
	}
	q.buf = buf
}

// demux is the shared half of the pre-pass: the one interleaved
// annotator plus each thread's queue and routing budget.
type demux struct {
	iv  *interleaver
	ann *annotate.Annotator
	// queues[t] holds annotated instructions labelled t that the shared
	// pass produced while filling some other thread's request.
	queues []instQueue
	// left[t] is how many more instructions thread t may be routed:
	// its Measure budget minus those already queued or delivered.
	left []int64
}

// threadSource is thread t's view of the shared pass. It implements
// core.AnnotatedSource with the engines' in-place fast path.
type threadSource struct {
	d *demux
	t int
}

func (s *threadSource) Next() (annotate.Inst, bool) {
	var in annotate.Inst
	ok := s.NextInto(&in)
	return in, ok
}

// NextInto delivers thread t's next instruction: from its queue when
// one is waiting, otherwise by advancing the shared pass — annotating
// straight into dst and routing every other thread's instruction into
// its queue (or dropping it once that thread's budget is spent) until
// one labelled t arrives, the stream ends, or t's own source has dried
// up (the other threads may run on forever).
func (s *threadSource) NextInto(dst *annotate.Inst) bool {
	d := s.d
	if q := &d.queues[s.t]; q.head != q.tail {
		*dst = q.buf[q.head&(len(q.buf)-1)]
		q.head++
		return true
	}
	for d.left[s.t] > 0 && !d.iv.exhausted(s.t) {
		if !d.ann.NextInto(dst) {
			break
		}
		th := d.iv.last
		if d.left[th] == 0 {
			continue
		}
		d.left[th]--
		if th == s.t {
			return true
		}
		d.queues[th].push(dst)
	}
	return false
}

// peakQueued is the deepest any thread queue has been across every
// pre-pass in the process — the bounded-queue test's observable.
var peakQueued atomic.Int64

// buildThreadTraces runs the shared-hierarchy pre-pass: one
// deterministic interleaved annotation pass, warmed once, demultiplexed
// into K per-thread engines that step epoch-at-a-time to record the
// schedule trace. The driver always steps the live thread that has
// fetched least, so no queue holds much more than one epoch's span of
// the stream; stepping each engine to exhaustion and calling Finish is
// bit-identical to Engine.Run, so the results serve Run too. cfg must
// be validated with the granule already defaulted.
func buildThreadTraces(cfg Config) []threadTrace {
	srcs := make([]trace.Source, len(cfg.Threads))
	for i := range srcs {
		srcs[i] = workload.MustNew(cfg.Threads[i])
	}
	return demuxTraces(srcs, cfg)
}

// demuxTraces is buildThreadTraces over explicit thread sources
// (cfg.Threads is ignored).
func demuxTraces(srcs []trace.Source, cfg Config) []threadTrace {
	k := len(srcs)
	iv := &interleaver{srcs: srcs, granule: cfg.Granule, cur: -1}
	ann := annotate.New(iv, annotate.Config{Hierarchy: cfg.Hierarchy})
	ann.Warm(cfg.Warmup * int64(k))
	d := &demux{iv: iv, ann: ann, queues: make([]instQueue, k), left: make([]int64, k)}

	p := cfg.Processor
	p.MaxInstructions = cfg.Measure
	steppers := make([]*core.Stepper, k)
	for t := range steppers {
		d.left[t] = cfg.Measure
		steppers[t] = core.NewStepper(&threadSource{d: d, t: t}, p)
	}
	out := make([]threadTrace, k)
	prevFetch := make([]int64, k)
	prevAcc := make([]uint64, k)
	live := make([]bool, k)
	for t := range live {
		live[t] = true
	}
	for running := k; running > 0; {
		t := -1
		for i, st := range steppers {
			if live[i] && (t < 0 || st.Fetched() < steppers[t].Fetched()) {
				t = i
			}
		}
		st := steppers[t]
		if !st.Step() {
			live[t] = false
			running--
			out[t].res = st.Finish()
			continue
		}
		out[t].epochs = append(out[t].epochs, EpochRec{
			Insts:     st.Fetched() - prevFetch[t],
			Accesses:  st.Accesses() - prevAcc[t],
			Unretired: st.Unretired(),
		})
		prevFetch[t], prevAcc[t] = st.Fetched(), st.Accesses()
	}

	var peak int64
	for i := range d.queues {
		peak = max(peak, int64(d.queues[i].peak))
	}
	for {
		old := peakQueued.Load()
		if peak <= old || peakQueued.CompareAndSwap(old, peak) {
			break
		}
	}
	return out
}
