package cyclesim

// This file keeps a verbatim copy of the cycle simulator as it stood
// before the lock-step gang rewrite — one private ROB of full
// annotate.Inst copies per simulation, dependence links bound at
// dispatch, and an issue stage that walks the whole ROB every cycle —
// with only its identifiers renamed. It is the reference the
// differential tests in gang_test.go hold RunGang to, bit for bit.

import (
	"fmt"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
)

// refEntry is one in-flight instruction.
type refEntry struct {
	ai      annotate.Inst
	issued  bool
	doneAt  int64 // cycle the result becomes available (valid once issued)
	prod1   int64 // producer instruction indices (absolute)
	prod2   int64
	memProd int64
}

// refHeap is a hand-rolled min-heap of completion cycles. Unlike a
// container/heap adapter it pushes and pops typed int64s — no
// interface{} boxing allocation per event — and its backing slice is
// reused across pops, so the steady state allocates nothing.
type refHeap struct{ a []int64 }

func (h *refHeap) len() int   { return len(h.a) }
func (h *refHeap) min() int64 { return h.a[0] }

func (h *refHeap) push(v int64) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *refHeap) pop() int64 {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	h.a = a[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && a[r] < a[l] {
			l = r
		}
		if a[i] <= a[l] {
			break
		}
		a[i], a[l] = a[l], a[i]
		i = l
	}
	return top
}

// refInPlaceSource is the optional fetch fast path (mirroring the core
// engine): sources that can decode directly into a caller-provided Inst
// (e.g. atrace.Replay) skip the by-value copies of Next.
type refInPlaceSource interface {
	NextInto(*annotate.Inst) bool
}

// refSim is one cycle-level simulation.
type refSim struct {
	cfg     Config
	src     core.AnnotatedSource
	srcInto refInPlaceSource // src's fast path, nil when unsupported

	cycle int64
	// rob is a preallocated power-of-two ring of in-flight instructions;
	// robBase is the absolute index of the oldest entry. Entries retire
	// from the front. Capacity is fixed at construction (≥ cfg.ROB, the
	// dispatch gate), so steady-state operation never reallocates.
	rob      []refEntry
	robBase  int64
	robHead  int // ring offset of the oldest entry
	robCount int
	robMask  int
	nextIdx  int64
	unissued int

	// fetchQ is a preallocated power-of-two ring (≥ FetchBuffer+1: an
	// arriving off-chip I-line delivers its instruction past the normal
	// fetch gate).
	fetchQ     []annotate.Inst
	fetchHead  int
	fetchCount int
	fetchMask  int
	fetchStall int64
	// awaitBranch, when >= 0, is the absolute index of a fetched
	// mispredicted branch; fetch resumes after it resolves.
	awaitBranch int64
	// pendingIMiss holds an instruction whose fetch is waiting for an
	// off-chip line (valid when havePendingIMiss).
	pendingIMiss     annotate.Inst
	havePendingIMiss bool
	// fetchTmp stages the instruction being pulled from the source. It
	// lives on the Sim rather than the fetch stack so the pointer handed
	// to the source interface does not force a per-instruction heap
	// escape.
	fetchTmp       annotate.Inst
	pendingIMissAt int64
	srcDone        bool
	fetched        int64

	producers [isa.NumRegs]int64
	lastStore *core.StoreTable

	outstanding int
	completions refHeap
	mlpSum      int64
	mlpCycles   int64
	accesses    uint64
	retired     int64
}

// newRefSim builds a simulation over the annotated source. It panics on invalid
// configurations.
func newRefSim(src core.AnnotatedSource, cfg Config) *refSim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &refSim{cfg: cfg, src: src, lastStore: core.NewStoreTable(), awaitBranch: -1}
	s.srcInto, _ = src.(refInPlaceSource)
	for i := range s.producers {
		s.producers[i] = -1
	}
	s.rob = make([]refEntry, refRingCap(cfg.ROB))
	s.robMask = len(s.rob) - 1
	s.fetchQ = make([]annotate.Inst, refRingCap(cfg.FetchBuffer+1))
	s.fetchMask = len(s.fetchQ) - 1
	return s
}

// refRingCap returns the smallest power of two ≥ n.
func refRingCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// pull reads the next instruction from the source into *dst, using the
// in-place fast path when the source supports it.
func (s *refSim) pull(dst *annotate.Inst) bool {
	if s.srcInto != nil {
		return s.srcInto.NextInto(dst)
	}
	ai, ok := s.src.Next()
	if !ok {
		return false
	}
	*dst = ai
	return true
}

func (s *refSim) robLen() int { return s.robCount }

func (s *refSim) robAt(i int) *refEntry { return &s.rob[(s.robHead+i)&s.robMask] }

// robPush appends an entry at the ring tail, doubling the ring in the
// (configuration-error) case that the dispatch gate let it fill.
func (s *refSim) robPush(e refEntry) {
	if s.robCount == len(s.rob) {
		s.growROB()
	}
	s.rob[(s.robHead+s.robCount)&s.robMask] = e
	s.robCount++
}

func (s *refSim) growROB() {
	grown := make([]refEntry, 2*len(s.rob))
	for i := 0; i < s.robCount; i++ {
		grown[i] = s.rob[(s.robHead+i)&s.robMask]
	}
	s.rob = grown
	s.robMask = len(grown) - 1
	s.robHead = 0
}

func (s *refSim) fetchQLen() int { return s.fetchCount }

func (s *refSim) fetchQAt(i int) *annotate.Inst { return &s.fetchQ[(s.fetchHead+i)&s.fetchMask] }

func (s *refSim) fetchPush(ai annotate.Inst) {
	if s.fetchCount == len(s.fetchQ) {
		s.growFetchQ()
	}
	s.fetchQ[(s.fetchHead+s.fetchCount)&s.fetchMask] = ai
	s.fetchCount++
}

func (s *refSim) growFetchQ() {
	grown := make([]annotate.Inst, 2*len(s.fetchQ))
	for i := 0; i < s.fetchCount; i++ {
		grown[i] = s.fetchQ[(s.fetchHead+i)&s.fetchMask]
	}
	s.fetchQ = grown
	s.fetchMask = len(grown) - 1
	s.fetchHead = 0
}

// Run simulates to completion and returns the result.
func (s *refSim) Run() Result {
	for !s.finished() {
		s.cycle++
		s.doCompletions()
		progress := s.retire()
		progress += s.issue()
		progress += s.dispatch()
		progress += s.fetch()
		if s.outstanding > 0 {
			s.mlpSum += int64(s.outstanding)
			s.mlpCycles++
		}
		if progress == 0 {
			s.leap()
		}
	}
	res := Result{
		Config:       s.cfg,
		Instructions: s.retired,
		Cycles:       s.cycle,
		MLPCycles:    s.mlpCycles,
		Accesses:     s.accesses,
	}
	if s.mlpCycles > 0 {
		res.MLP = float64(s.mlpSum) / float64(s.mlpCycles)
	}
	return res
}

func (s *refSim) finished() bool {
	return s.srcDone && s.robLen() == 0 && s.fetchQLen() == 0 && !s.havePendingIMiss
}

// entryDone reports whether an issued entry's result is available.
func (s *refSim) entryDone(e *refEntry) bool {
	return e.issued && e.doneAt <= s.cycle
}

// latency returns the result latency for a data access.
func (s *refSim) latency(offChip bool) int64 {
	if offChip && !s.cfg.PerfectL2 {
		return int64(s.cfg.MissPenalty)
	}
	if offChip {
		return int64(s.cfg.L2Latency)
	}
	return int64(s.cfg.L1Latency)
}

// noteAccess registers one useful off-chip access outstanding for lat
// cycles.
func (s *refSim) noteAccess(lat int64) {
	s.outstanding++
	s.accesses++
	s.completions.push(s.cycle + lat)
}

func (s *refSim) doCompletions() {
	for s.completions.len() > 0 && s.completions.min() <= s.cycle {
		s.completions.pop()
		s.outstanding--
	}
}

func (s *refSim) retire() int {
	n := 0
	for n < s.cfg.RetireWidth && s.robLen() > 0 {
		e := s.robAt(0)
		if !s.entryDone(e) {
			break
		}
		s.robHead = (s.robHead + 1) & s.robMask
		s.robCount--
		s.robBase++
		s.retired++
		n++
	}
	return n
}

// opReady reports whether the producer at absolute index p has produced
// its value.
func (s *refSim) opReady(p int64) bool {
	if p < s.robBase {
		return true
	}
	i := p - s.robBase
	if i >= int64(s.robLen()) {
		return true
	}
	return s.entryDone(s.robAt(int(i)))
}

// issue picks ready, constraint-satisfying instructions oldest first. It
// returns the number issued.
func (s *refSim) issue() int {
	issued := 0
	var firstUnresolvedStore, unissuedMem, unissuedBranch, unissuedSerial int64 = -1, -1, -1, -1
	for i := 0; i < s.robLen() && issued < s.cfg.IssueWidth; i++ {
		e := s.robAt(i)
		abs := s.robBase + int64(i)
		if e.issued {
			continue
		}
		if s.tryIssue(abs, e, firstUnresolvedStore, unissuedMem, unissuedBranch, unissuedSerial) {
			issued++
		}
		if !e.issued {
			cls := e.ai.Class
			if cls.IsMemWrite() && firstUnresolvedStore < 0 && !s.opReady(e.prod1) {
				firstUnresolvedStore = abs
			}
			if (cls == isa.Load || cls.IsMemWrite()) && unissuedMem < 0 {
				unissuedMem = abs
			}
			if cls == isa.Branch && unissuedBranch < 0 {
				unissuedBranch = abs
			}
			if cls.IsSerializing() && unissuedSerial < 0 {
				unissuedSerial = abs
			}
		}
	}
	return issued
}

// tryIssue attempts to issue one entry under the configuration's
// constraints; it returns true if the entry issued this cycle.
func (s *refSim) tryIssue(abs int64, e *refEntry, firstUnresolvedStore, unissuedMem, unissuedBranch, unissuedSerial int64) bool {
	cls := e.ai.Class

	// A pending serializing instruction drains the pipeline: nothing
	// younger issues, and the serializing instruction itself issues only
	// from the ROB head.
	if unissuedSerial >= 0 && unissuedSerial < abs {
		return false
	}
	if cls.IsSerializing() && abs != s.robBase {
		return false
	}
	if !s.opReady(e.prod1) || !s.opReady(e.prod2) {
		return false
	}
	isLoadLike := cls.IsMemRead() && cls != isa.Prefetch
	if isLoadLike && e.memProd >= 0 && !s.opReady(e.memProd) {
		return false
	}
	if cls == isa.Branch && s.cfg.Issue.BranchesInOrder() &&
		unissuedBranch >= 0 && unissuedBranch < abs {
		return false
	}
	if isLoadLike {
		if s.cfg.Issue.LoadsInOrder() && unissuedMem >= 0 && unissuedMem < abs {
			return false
		}
		if s.cfg.Issue.LoadsWaitStoreAddr() && firstUnresolvedStore >= 0 && firstUnresolvedStore < abs {
			return false
		}
	}

	// Finite MSHRs: a new off-chip access waits for a free register.
	needsMSHR := !s.cfg.PerfectL2 &&
		((cls == isa.Prefetch && e.ai.PMiss) || (isLoadLike && e.ai.DMiss))
	if needsMSHR && s.cfg.MSHRs > 0 && s.outstanding >= s.cfg.MSHRs {
		return false
	}

	e.issued = true
	s.unissued--
	switch {
	case cls == isa.Prefetch:
		if e.ai.PMiss && !s.cfg.PerfectL2 {
			s.noteAccess(int64(s.cfg.MissPenalty))
		}
		e.doneAt = s.cycle + 1 // fire and forget
	case isLoadLike:
		lat := s.latency(e.ai.DMiss)
		if e.ai.DMiss && !s.cfg.PerfectL2 {
			s.noteAccess(lat)
		}
		e.doneAt = s.cycle + lat
	case cls == isa.Store:
		e.doneAt = s.cycle + 1 // commits from the store buffer
	case cls == isa.Branch:
		e.doneAt = s.cycle + 1
		if s.awaitBranch == abs {
			// Resolution redirects the front end.
			s.fetchStall = refMaxI64(s.fetchStall, e.doneAt+int64(s.cfg.MispredictPenalty))
			s.awaitBranch = -1
		}
	default:
		e.doneAt = s.cycle + 1
	}
	return true
}

func (s *refSim) dispatch() int {
	n := 0
	for n < s.cfg.DispatchWidth && s.fetchQLen() > 0 {
		if s.robLen() >= s.cfg.ROB || s.unissued >= s.cfg.IssueWindow {
			break
		}
		ai := *s.fetchQAt(0)
		s.fetchHead = (s.fetchHead + 1) & s.fetchMask
		s.fetchCount--
		e := refEntry{ai: ai, prod1: -1, prod2: -1, memProd: -1}
		j := s.nextIdx
		if ai.Src1 != isa.NoReg && ai.Src1 != isa.RegZero {
			e.prod1 = s.producers[ai.Src1]
		}
		if ai.Src2 != isa.NoReg && ai.Src2 != isa.RegZero {
			e.prod2 = s.producers[ai.Src2]
		}
		cls := ai.Class
		if cls.IsMemRead() && cls != isa.Prefetch {
			if p, ok := s.lastStore.Get(ai.EA >> 3); ok {
				e.memProd = p
			}
		}
		if cls.IsMemWrite() {
			s.lastStore.Put(ai.EA>>3, j)
		}
		if ai.HasDst() {
			s.producers[ai.Dst] = j
		}
		s.robPush(e)
		s.nextIdx++
		s.unissued++
		n++
	}
	return n
}

func (s *refSim) fetch() int {
	// An off-chip instruction fetch in flight delivers its instruction
	// when the line arrives. A fetch still waiting for a free MSHR issues
	// its access as soon as one drains.
	if s.havePendingIMiss {
		if s.pendingIMiss.IMiss {
			if s.cfg.MSHRs > 0 && s.outstanding >= s.cfg.MSHRs {
				return 0
			}
			s.noteAccess(int64(s.cfg.MissPenalty))
			s.pendingIMiss.IMiss = false
			s.pendingIMissAt = s.cycle + int64(s.cfg.MissPenalty)
			return 1
		}
		if s.cycle < s.pendingIMissAt {
			return 0
		}
		s.fetchPush(s.pendingIMiss)
		s.havePendingIMiss = false
		return 1
	}
	if s.cycle < s.fetchStall || s.awaitBranch >= 0 {
		return 0
	}
	n := 0
	for n < s.cfg.FetchWidth && s.fetchQLen() < s.cfg.FetchBuffer {
		if s.srcDone {
			break
		}
		if s.cfg.MaxInstructions > 0 && s.fetched >= s.cfg.MaxInstructions {
			s.srcDone = true
			break
		}
		ai := &s.fetchTmp
		if !s.pull(ai) {
			s.srcDone = true
			break
		}
		s.fetched++
		if ai.IMiss && !s.cfg.PerfectL2 && s.cfg.MSHRs > 0 && s.outstanding >= s.cfg.MSHRs {
			// No MSHR free: the fetch waits (IMiss stays set; the pending
			// branch above issues the access when a register drains).
			s.pendingIMiss, s.havePendingIMiss = *ai, true
			return n
		}
		if ai.IMiss && !s.cfg.PerfectL2 {
			// Fetch blocks until the line returns; the access overlaps
			// with whatever else is outstanding. In the CPI_perf run the
			// line comes from the (perfect) L2 instead.
			s.noteAccess(int64(s.cfg.MissPenalty))
			s.pendingIMissAt = s.cycle + int64(s.cfg.MissPenalty)
			ai.IMiss = false
			s.pendingIMiss, s.havePendingIMiss = *ai, true
			return n + 1
		}
		if ai.IMiss {
			// Perfect L2: a short front-end bubble.
			s.fetchStall = s.cycle + int64(s.cfg.L2Latency)
			ai.IMiss = false
			s.fetchPush(*ai)
			n++
			break
		}
		s.fetchPush(*ai)
		n++
		if ai.Class == isa.Branch && ai.Mispred {
			// Fetch proceeds down the wrong path until resolution; the
			// trace holds only correct-path instructions, so fetch waits
			// for the branch to resolve and redirect.
			s.awaitBranch = s.robBase + int64(s.robLen()) + int64(s.fetchQLen()) - 1
			break
		}
	}
	return n
}

// leap advances time to the next event when a cycle made no progress:
// everything in flight waits on a completion, an arriving I-line, or a
// front-end redirect.
func (s *refSim) leap() {
	next := int64(1 << 62)
	for i := 0; i < s.robLen(); i++ {
		e := s.robAt(i)
		if e.issued && e.doneAt > s.cycle && e.doneAt < next {
			next = e.doneAt
		}
	}
	if s.havePendingIMiss && !s.pendingIMiss.IMiss && s.pendingIMissAt < next {
		next = s.pendingIMissAt
	}
	if s.completions.len() > 0 && s.completions.min() > s.cycle && s.completions.min() < next {
		next = s.completions.min()
	}
	if s.fetchStall > s.cycle && s.fetchStall < next {
		next = s.fetchStall
	}
	if next >= 1<<62 {
		// No timed event: either we are finished, or the machine is
		// deadlocked (a bug).
		if !s.finished() {
			panic(fmt.Sprintf("cyclesim: deadlock at cycle %d (rob=%d fetchQ=%d)",
				s.cycle, s.robLen(), s.fetchQLen()))
		}
		return
	}
	if next <= s.cycle+1 {
		return
	}
	gap := next - s.cycle - 1
	if s.outstanding > 0 {
		s.mlpSum += int64(s.outstanding) * gap
		s.mlpCycles += gap
	}
	s.cycle += gap
}

func refMaxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
