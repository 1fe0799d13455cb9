package core

import (
	"fmt"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/vpred"
)

// AnnotatedSource yields annotated instructions (see internal/annotate).
type AnnotatedSource interface {
	Next() (annotate.Inst, bool)
}

// inPlaceSource is an optional fast path: sources that can decode
// directly into a caller-provided Inst (e.g. atrace.Replay) skip the
// by-value copies of Next. annotate.Inst is large enough that routing it
// through return values is measurable on the fetch path.
type inPlaceSource interface {
	NextInto(*annotate.Inst) bool
}

// linkedSource is the gang fast path: a source that delivers each
// instruction together with its pre-computed dependence links. Engines
// fed by one skip their own binder (and its StoreTable) entirely — the
// links are a pure function of the stream, so a gang computes them once
// and broadcasts (see gang.go).
type linkedSource interface {
	NextLinked(*annotate.Inst, *links) bool
}

// links are one instruction's dependence edges, bound in program order.
// They depend only on the instruction stream, never on the engine
// configuration.
type links struct {
	// prod1, prod2 are the register producers (renaming).
	prod1, prod2 int64
	// memProd is the most recent earlier store to the same address.
	memProd int64
	// prevMem / prevStore / prevBranch chain same-class predecessors for
	// the issue-ordering policies.
	prevMem, prevStore, prevBranch int64
}

// slotState is the hot, per-engine mutable half of an in-flight dynamic
// instruction. The decoded annotate.Inst (cold after fetch: mostly read
// once per execution attempt) lives in a parallel ring so the per-step
// working set stays small.
type slotState struct {
	links

	// avail is the epoch from which the slot's result can be consumed
	// (valid once executed). On-chip results are available in their
	// execution epoch; missing loads deliver data one epoch later — unless
	// their value was correctly predicted (vpCut).
	avail int64
	// complete is the epoch from which the slot can retire. A missing
	// load completes one epoch after issue even when value-predicted: the
	// prediction frees its consumers, not its reorder-buffer entry.
	complete int64

	executed bool
	// counted marks that the slot's off-chip access has been recorded.
	counted bool
	// countedS marks that the slot's off-chip *store* access has been
	// recorded (store-MLP extension).
	countedS bool
	// imissDone marks that the slot's instruction-fetch miss has been
	// issued (the line arrives at the end of that epoch).
	imissDone bool
	// vpCut marks a missing load whose value was correctly predicted:
	// dependents need not wait for the data.
	vpCut bool
	// vpWrong marks a missing load with a wrong value prediction
	// (conventional mode pays a recovery flush at its first consumer).
	vpWrong bool
	// vpHandled marks that the wrong prediction's flush already happened.
	vpHandled bool
	// depHandled marks that the slot's dependence-misprediction flush
	// already happened (DisambStoreSets charges it once per load).
	depHandled bool
	// depSerCounted marks that the slot's needless serialization behind a
	// store has been counted (once per load).
	depSerCounted bool
}

// binder computes dependence links in program order: register renaming
// via the producers table, store forwarding via the bounded StoreTable,
// and the same-class predecessor chains. One binder serves either a
// single engine or a whole gang — binding at pull time is equivalent to
// binding at window entry because instructions enter the window in pull
// order.
type binder struct {
	producers                               [isa.NumRegs]int64
	lastStore                               *StoreTable
	prevMemIdx, prevStoreIdx, prevBranchIdx int64
}

// newBinder returns a binder whose StoreTable is sized for at most
// maxInsts bound instructions (0 = unbounded: the full table).
func newBinder(maxInsts int64) *binder {
	b := &binder{lastStore: storeTableFor(maxInsts)}
	for i := range b.producers {
		b.producers[i] = -1
	}
	b.prevMemIdx, b.prevStoreIdx, b.prevBranchIdx = -1, -1, -1
	return b
}

// bind fills in instruction j's links and updates the binding state.
func (b *binder) bind(ai *annotate.Inst, j int64, ln *links) {
	ln.prod1, ln.prod2, ln.memProd = -1, -1, -1
	ln.prevMem, ln.prevStore, ln.prevBranch = -1, -1, -1

	if ai.Src1 != isa.NoReg && ai.Src1 != isa.RegZero {
		ln.prod1 = b.producers[ai.Src1]
	}
	if ai.Src2 != isa.NoReg && ai.Src2 != isa.RegZero {
		ln.prod2 = b.producers[ai.Src2]
	}
	cls := ai.Class
	if cls.IsMemRead() && cls != isa.Prefetch {
		if p, ok := b.lastStore.Get(ai.EA >> 3); ok {
			ln.memProd = p
		}
	}
	if cls == isa.Load || cls == isa.Store || cls == isa.CASA || cls == isa.LDSTUB {
		ln.prevMem = b.prevMemIdx
		b.prevMemIdx = j
		// Loads carry the link too: non-oracle disambiguation serializes a
		// predicted-dependent load behind the last fetched store.
		ln.prevStore = b.prevStoreIdx
	}
	if cls.IsMemWrite() {
		b.prevStoreIdx = j
		// Bounded table; stale producers resolve as retired.
		b.lastStore.Put(ai.EA>>3, j)
	}
	if cls == isa.Branch {
		ln.prevBranch = b.prevBranchIdx
		b.prevBranchIdx = j
	}
	if ai.HasDst() {
		b.producers[ai.Dst] = j
	}
}

// pendInst is one fetched-but-undispatched instruction in the pending
// ring (filled by the fetch-buffer scan).
type pendInst struct {
	ai annotate.Inst
	ln links
}

// Engine is the MLPsim epoch-model engine.
type Engine struct {
	cfg       Config
	src       AnnotatedSource
	srcInto   inPlaceSource // src's fast path, nil when unsupported
	srcLinked linkedSource  // gang fast path, nil when unsupported

	// The window is a power-of-two ring of live slots [retire, fetchEnd),
	// indexed by absolute instruction index & mask. Decoded instructions
	// and mutable state live in parallel rings (hot/cold split). Capacity
	// is sized from the Config window bounds at NewEngine time and only
	// grows (doubling) if the live set outruns it, so the steady-state
	// fetch path never allocates.
	insts []annotate.Inst
	state []slotState
	mask  int64

	// fetchEnd is one past the last fetched instruction.
	fetchEnd int64
	// retire is the commit frontier: every slot below it has executed and
	// its result is available in the current epoch.
	retire int64
	// unexec counts fetched-but-unexecuted slots (issue-window occupancy).
	unexec int
	eof    bool

	// bind is the engine's private binder; nil when srcLinked delivers
	// pre-bound links.
	bind *binder

	// pending holds instructions pulled from the source by the fetch
	// buffer scan but not yet dispatched into the window: a power-of-two
	// ring of at most FetchBuffer entries, preallocated at NewEngine.
	pending            []pendInst
	pendMask           int64
	pendHead, pendTail int64

	srcPulled int64

	epoch int64
	// ep is the current epoch's accumulator, hoisted out of step so the
	// hot loop reuses one instance.
	ep  epochState
	res Result
}

// pullSource reads one instruction (and its links) from the underlying
// source, honouring MaxInstructions and applying the perfect-feature
// rewrites.
func (e *Engine) pullSource(dst *annotate.Inst, ln *links) bool {
	if e.cfg.MaxInstructions > 0 && e.srcPulled >= e.cfg.MaxInstructions {
		return false
	}
	switch {
	case e.srcLinked != nil:
		if !e.srcLinked.NextLinked(dst, ln) {
			return false
		}
	case e.srcInto != nil:
		if !e.srcInto.NextInto(dst) {
			return false
		}
		e.bind.bind(dst, e.srcPulled, ln)
	default:
		ai, ok := e.src.Next()
		if !ok {
			return false
		}
		*dst = ai
		e.bind.bind(dst, e.srcPulled, ln)
	}
	e.srcPulled++
	// The rewrites only touch IMiss/Mispred, which the binder never
	// reads, so binding before them is safe.
	if e.cfg.PerfectIFetch {
		dst.IMiss = false
	}
	if e.cfg.PerfectBP {
		dst.Mispred = false
	}
	return true
}

// ringSize returns the slot-ring capacity for cfg: enough for the
// largest possible live set where the window bound is known (out of
// order), a modest start the ring grows from where it is workload-
// dependent (in order: outstanding prefetches can pile up behind a
// stalled tail).
func ringSize(cfg Config) int {
	switch {
	case cfg.Mode == OutOfOrder && cfg.Runahead:
		return pow2ceil(cfg.MaxRunahead + 1)
	case cfg.Mode == OutOfOrder:
		return pow2ceil(cfg.ROB + 1)
	default:
		return 256
	}
}

// pow2ceil returns the smallest power of two >= n (minimum 1).
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewEngine builds an engine; it panics on invalid configurations
// (configurations are produced by code, not end users).
func NewEngine(src AnnotatedSource, cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		cfg: cfg,
		src: src,
	}
	e.srcInto, _ = src.(inPlaceSource)
	e.srcLinked, _ = src.(linkedSource)
	if e.srcLinked == nil {
		// pullSource never binds more than MaxInstructions instructions,
		// so a bounded engine starts with a table sized for them: K
		// per-thread engines alive at once (the SMT pre-pass) would
		// otherwise each hold a full-size table.
		e.bind = newBinder(cfg.MaxInstructions)
	}
	n := ringSize(cfg)
	e.insts = make([]annotate.Inst, n)
	e.state = make([]slotState, n)
	e.mask = int64(n) - 1
	p := pow2ceil(cfg.FetchBuffer + 1)
	e.pending = make([]pendInst, p)
	e.pendMask = int64(p) - 1
	return e
}

// Run processes the stream to completion (or cfg.MaxInstructions) and
// returns the result.
func (e *Engine) Run() Result {
	for e.step() {
	}
	return e.finish()
}

// finish seals and returns the accumulated result. Used by Run and by
// the gang runner, which drives step directly.
func (e *Engine) finish() Result {
	e.res.Config = e.cfg
	e.res.Instructions = e.fetchEnd
	return e.res
}

// step runs one epoch; it returns false when the stream is exhausted and
// no work remains.
func (e *Engine) step() bool {
	if e.eof && e.retire >= e.fetchEnd {
		return false
	}
	e.epoch++
	before := e.fetchEnd
	executedBefore := e.unexec
	e.ep = epochState{firstUnresolvedStore: -1, firstUnexecStore: -1, blockIdx: -1}
	ep := &e.ep

	if e.cfg.Mode == OutOfOrder {
		e.runEpochOoO(ep)
	} else {
		e.runEpochInOrder(ep)
	}

	if ep.sAccesses > 0 {
		e.res.StoreEpochs++
		e.res.SAccesses += uint64(ep.sAccesses)
	}
	if ep.accesses > 0 {
		e.res.Epochs++
		e.res.Accesses += uint64(ep.accesses)
		e.res.DAccesses += uint64(ep.dAccesses)
		e.res.PAccesses += uint64(ep.pAccesses)
		e.res.IAccesses += uint64(ep.iAccesses)
		lim := ep.limiter
		if ep.blockIdx >= 0 && ep.blockIdx <= ep.termIdx {
			lim = ep.blockLim
		}
		e.res.Limiters[lim]++
		if e.cfg.OnEpoch != nil {
			ep.epoch.Seq = e.res.Epochs - 1
			ep.epoch.Accesses = ep.accesses
			ep.epoch.DAccesses = ep.dAccesses
			ep.epoch.PAccesses = ep.pAccesses
			ep.epoch.IAccesses = ep.iAccesses
			ep.epoch.Limiter = lim
			e.cfg.OnEpoch(ep.epoch)
		}
	}

	// Progress guard: an epoch must fetch, execute or access something.
	if e.fetchEnd == before && e.unexec == executedBefore && ep.accesses == 0 && !e.eof {
		panic(fmt.Sprintf("core: epoch %d made no progress at instruction %d", e.epoch, e.fetchEnd))
	}
	return true
}

// epochState accumulates one epoch's events.
type epochState struct {
	accesses             int
	dAccesses            int
	pAccesses            int
	iAccesses            int
	trigger              int64
	sAccesses            int
	limiter              Limiter
	termIdx              int64 // index where the window terminated
	blockIdx             int64 // earliest Fig-5 blocking event (config A/B load blocks)
	blockLim             Limiter
	firstUnresolvedStore int64
	// firstUnexecStore is the first not-yet-executed store in scan order
	// (DisambConservative serializes every later load behind it).
	firstUnexecStore int64
	epoch            Epoch
}

// stateAt returns the mutable state of the slot at absolute index j.
// Valid only for live indices [retire, fetchEnd); below retire the ring
// position may have been reused (callers guard with p < e.retire).
func (e *Engine) stateAt(j int64) *slotState {
	return &e.state[j&e.mask]
}

// instAt returns the decoded instruction at absolute index j (same
// validity rule as stateAt).
func (e *Engine) instAt(j int64) *annotate.Inst {
	return &e.insts[j&e.mask]
}

// growRing doubles the window ring, re-placing the live slots.
func (e *Engine) growRing() {
	n := 2 * len(e.state)
	insts := make([]annotate.Inst, n)
	state := make([]slotState, n)
	mask := int64(n) - 1
	for j := e.retire; j < e.fetchEnd; j++ {
		insts[j&mask] = e.insts[j&e.mask]
		state[j&mask] = e.state[j&e.mask]
	}
	e.insts, e.state, e.mask = insts, state, mask
}

// fetchNext pulls the next instruction into the window; its links were
// bound at pull time. It returns nils at (or beyond) end of stream.
func (e *Engine) fetchNext() (*annotate.Inst, *slotState) {
	if e.eof {
		return nil, nil
	}
	j := e.fetchEnd
	if j-e.retire >= int64(len(e.state)) {
		e.growRing()
	}
	ai := &e.insts[j&e.mask]
	st := &e.state[j&e.mask]
	if e.pendHead < e.pendTail {
		p := &e.pending[e.pendHead&e.pendMask]
		e.pendHead++
		*ai = p.ai
		st.links = p.ln
	} else if !e.pullSource(ai, &st.links) {
		e.eof = true
		return nil, nil
	}
	// The ring slot is being reused: reset the per-engine state (the
	// decode above fully overwrote ai and links).
	st.avail, st.complete = 0, 0
	st.executed, st.counted, st.countedS = false, false, false
	st.imissDone, st.vpCut, st.vpWrong, st.vpHandled = false, false, false, false
	st.depHandled, st.depSerCounted = false, false

	if ai.DMiss {
		switch {
		case e.cfg.PerfectVP:
			st.vpCut = true
		case e.cfg.ValuePredict && ai.VPOutcome == vpred.Correct:
			st.vpCut = true
		case e.cfg.ValuePredict && ai.VPOutcome == vpred.Wrong:
			st.vpWrong = true
		}
	}

	e.fetchEnd++
	e.unexec++
	return ai, st
}

// advanceRetire moves the commit frontier past completed work, freeing
// ring slots for reuse.
func (e *Engine) advanceRetire() {
	for e.retire < e.fetchEnd {
		st := e.stateAt(e.retire)
		if !st.executed || st.complete > e.epoch {
			break
		}
		e.retire++
	}
}

// resultReady reports whether producer p's result can be consumed in the
// current epoch.
func (e *Engine) resultReady(p int64) bool {
	if p < 0 || p < e.retire {
		return true
	}
	st := e.stateAt(p)
	return st.executed && st.avail <= e.epoch
}

// srcsReady reports whether all register sources of a slot are available.
func (e *Engine) srcsReady(st *slotState) bool {
	return e.resultReady(st.prod1) && e.resultReady(st.prod2)
}

// producerExecuted reports whether slot p has executed (issued).
func (e *Engine) producerExecuted(p int64) bool {
	if p < 0 || p < e.retire {
		return true
	}
	return e.stateAt(p).executed
}

// execute marks slot j executed in the current epoch, counting its
// off-chip access if it has one.
func (e *Engine) execute(j int64, ai *annotate.Inst, st *slotState, ep *epochState) {
	st.executed = true
	e.unexec--
	st.avail = e.epoch
	st.complete = e.epoch
	if (ai.DMiss || ai.PMiss) && !st.counted {
		st.counted = true
		kind := accD
		if ai.PMiss {
			kind = accP
		}
		ep.record(j, kind, e.cfg.OnEpoch != nil)
	}
	if ai.SMiss && !st.countedS {
		st.countedS = true
		ep.sAccesses++
	}
	if ai.DMiss {
		// Data returns at the end of this epoch. A correctly predicted
		// value (vpCut) lets consumers proceed immediately, but the load
		// itself still occupies its reorder-buffer entry until the data
		// returns.
		st.complete = e.epoch + 1
		if !st.vpCut {
			st.avail = e.epoch + 1
		}
	}
	if e.cfg.OnEpoch != nil {
		ep.epoch.Executed = append(ep.epoch.Executed, j)
	}
}
