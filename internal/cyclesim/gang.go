package cyclesim

import (
	"fmt"
	"math"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
)

// Per-instruction flags in the shared ring, derived once from the class
// and annotation bits so the pipeline stages never re-derive them.
const (
	fLoadLike uint8 = 1 << iota // reads memory and waits for it: Load, CASA, LDSTUB
	fMemWrite                   // Store, CASA, LDSTUB
	fSerial                     // CASA, LDSTUB, MemBar
	fBranch
	fPrefetch
	fMiss    // the data access goes off-chip (DMiss on a load-like, PMiss on a prefetch)
	fIMiss   // the fetch goes off-chip
	fMispred // mispredicted branch
)

// gangQuantum is how many instructions the gang lets one simulation's
// fetch cursor run past the runner-up's before switching: long enough
// that each switch is amortized over many cycles, short enough that the
// ring stays a few kilobytes.
const gangQuantum = 64

// notIssued is the doneAt of an entry that has not issued. Folding the
// issued flag into doneAt makes "has this result arrived" one compare.
const notIssued = math.MaxInt64

// slot is one decoded instruction in the shared ring: its flags and the
// distances back to its two register producers and its store-forwarding
// producer (memProd, load-likes only). Distance 0 means "no producer".
type slot struct {
	d1, d2, dm uint32
	flags      uint8
}

// Gang runs K cycle simulations in lock-step over one decode of an
// annotated stream. Each instruction is decoded and bound exactly once
// into a shared, read-only ring of slots; each simulation's ROB and fetch
// queue are absolute-index ranges into that ring, and its only
// per-instruction state is a doneAt/readyAt pair. Every simulation
// produces exactly the Result it would produce alone.
type Gang struct {
	src     inPlaceSource
	scratch annotate.Inst // decode target; only the ring's slot survives

	slots []slot
	mask  int64
	// head is the number of instructions decoded; the ring holds
	// [tail, head). tail is a cached lower bound on the oldest entry any
	// unfinished simulation still reads (its ROB head), refreshed only
	// when the ring looks full.
	head, tail int64
	eof        bool

	// Binding state: dependence links are a pure function of program
	// order, so one binder serves every simulation.
	producers [isa.NumRegs]int64
	lastStore *core.StoreTable

	sims []sim
	res  []Result
}

// RunGang simulates every configuration over src and returns their
// results in order. It panics on invalid configurations or a source that
// lacks NextInto.
func RunGang(src core.AnnotatedSource, cfgs []Config) []Result {
	return NewGang(src, cfgs).Run()
}

// NewGang builds a gang over src. Construction allocates everything the
// run needs; Run itself allocates only when a completion heap or the
// (never expected) ring growth needs more room.
func NewGang(src core.AnnotatedSource, cfgs []Config) *Gang {
	into, ok := src.(inPlaceSource)
	if !ok {
		panic(fmt.Sprintf("cyclesim: source %T does not implement NextInto", src))
	}
	span := 0
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			panic(err)
		}
		span = max(span, cfgs[i].ROB+cfgs[i].FetchBuffer+cfgs[i].FetchWidth+2+gangQuantum)
	}
	// The scheduler keeps every fetch cursor within one fetch group and
	// one quantum of the slowest, and each simulation reads back no
	// further than its ROB head, so span bounds the live part of the
	// ring; twice that leaves the doubling in fill as a pure safety net.
	n := ringCap(max(2*span, 256))
	g := &Gang{
		src:       into,
		slots:     make([]slot, n),
		mask:      int64(n) - 1,
		lastStore: core.NewStoreTable(),
		sims:      make([]sim, len(cfgs)),
		res:       make([]Result, len(cfgs)),
	}
	for i := range g.producers {
		g.producers[i] = -1
	}
	for i := range cfgs {
		g.sims[i].init(g, cfgs[i])
	}
	return g
}

// Run simulates every configuration to completion. The unfinished
// simulation with the smallest fetch cursor always runs next, until it
// is gangQuantum instructions past the runner-up, so the ring only ever
// holds about one window's worth of instructions.
func (g *Gang) Run() []Result {
	for {
		var s *sim
		bound := int64(math.MaxInt64)
		for i := range g.sims {
			t := &g.sims[i]
			switch {
			case t.done:
			case s == nil:
				s = t
			case t.fetched < s.fetched:
				bound = min(bound, s.fetched+gangQuantum)
				s = t
			default:
				bound = min(bound, t.fetched+gangQuantum)
			}
		}
		if s == nil {
			break
		}
		for !s.done && s.fetched <= bound {
			s.step()
		}
	}
	for i := range g.sims {
		g.res[i] = g.sims[i].result()
	}
	return g.res
}

// ringCap returns the smallest power of two ≥ n.
func ringCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// fill decodes and binds until instruction pos is in the ring; it
// returns false when the stream ends first.
func (g *Gang) fill(pos int64) bool {
	for pos >= g.head {
		if g.eof {
			return false
		}
		if g.head-g.tail >= int64(len(g.slots)) {
			g.refreshTail()
			if g.head-g.tail >= int64(len(g.slots)) {
				g.grow()
			}
		}
		if !g.src.NextInto(&g.scratch) {
			g.eof = true
			return false
		}
		g.slots[g.head&g.mask] = g.bind(&g.scratch, g.head)
		g.head++
	}
	return true
}

// bind packs instruction j's flags and dependence links and updates the
// binding state: register renaming through producers, store forwarding
// through the bounded last-store table.
func (g *Gang) bind(in *annotate.Inst, j int64) slot {
	var sl slot
	if in.Src1 != isa.NoReg && in.Src1 != isa.RegZero {
		sl.d1 = dist(j, g.producers[in.Src1])
	}
	if in.Src2 != isa.NoReg && in.Src2 != isa.RegZero {
		sl.d2 = dist(j, g.producers[in.Src2])
	}
	cls := in.Class
	loadLike := cls.IsMemRead() && cls != isa.Prefetch
	if loadLike {
		if p, ok := g.lastStore.Get(in.EA >> 3); ok {
			sl.dm = dist(j, p)
		}
		sl.flags |= fLoadLike
		if in.DMiss {
			sl.flags |= fMiss
		}
	}
	if cls.IsMemWrite() {
		// Bounded table; stale producers resolve as retired.
		g.lastStore.Put(in.EA>>3, j)
		sl.flags |= fMemWrite
	}
	if in.HasDst() {
		g.producers[in.Dst] = j
	}
	if cls.IsSerializing() {
		sl.flags |= fSerial
	}
	switch cls {
	case isa.Branch:
		sl.flags |= fBranch
		if in.Mispred {
			sl.flags |= fMispred
		}
	case isa.Prefetch:
		sl.flags |= fPrefetch
		if in.PMiss {
			sl.flags |= fMiss
		}
	}
	if in.IMiss {
		sl.flags |= fIMiss
	}
	return sl
}

// dist encodes producer p of instruction j as a backward distance. A
// producer more than maxROB instructions back has certainly retired
// (the ROB holding j cannot reach it), so it encodes as "none" — exactly
// what a retired producer means to the issue stage.
func dist(j, p int64) uint32 {
	if p < 0 || j-p > maxROB {
		return 0
	}
	return uint32(j - p)
}

// refreshTail recomputes the cached tail from the unfinished sims.
func (g *Gang) refreshTail() {
	t := g.head
	for i := range g.sims {
		if s := &g.sims[i]; !s.done {
			t = min(t, s.robBase)
		}
	}
	g.tail = t
}

// grow doubles the ring, re-placing the live entries.
func (g *Gang) grow() {
	slots := make([]slot, 2*len(g.slots))
	mask := int64(len(slots)) - 1
	for j := g.tail; j < g.head; j++ {
		slots[j&mask] = g.slots[j&g.mask]
	}
	g.slots, g.mask = slots, mask
}

// entryState is a simulation's private view of one in-flight
// instruction: when its result arrives (notIssued until it issues) and
// the cached cycle its operands are all ready (see readyAt).
type entryState struct {
	doneAt, readyAt int64
}

// sim is one configuration's pipeline state. Its ROB is the absolute
// range [robBase, nextIdx) of the gang's ring and its fetch queue is
// [nextIdx, fqEnd); an instruction waiting on an off-chip I-line sits at
// fqEnd while havePendingIMiss.
type sim struct {
	cfg Config
	g   *Gang
	// Issue policy, resolved once from cfg.Issue.
	branchesInOrder, loadsInOrder, loadsWaitStoreAddr bool

	cycle int64
	// st is the per-entry state ring (power of two ≥ ROB), indexed by
	// absolute index & stMask.
	st                      []entryState
	stMask                  int64
	robBase, nextIdx, fqEnd int64
	// waiting lists the unissued ROB entries oldest first; the issue
	// stage walks it instead of the whole ROB, and not at all before
	// cycle wake.
	waiting []int64
	wake    int64

	fetched    int64 // fetch cursor: instructions taken from the ring
	fetchStall int64
	// awaitBranch, when >= 0, is the absolute index of a fetched
	// mispredicted branch; fetch resumes after it resolves.
	awaitBranch int64
	// havePendingIMiss marks an instruction whose fetch waits for an
	// off-chip line; pendingNeedsMSHR that its access has not issued yet
	// for want of a free MSHR. The shared ring stays read-only: the
	// I-miss progress lives here, per simulation.
	havePendingIMiss, pendingNeedsMSHR bool
	pendingIMissAt                     int64
	srcDone                            bool
	done                               bool

	outstanding int
	completions eventHeap
	mlpSum      int64
	mlpCycles   int64
	accesses    uint64
}

func (s *sim) init(g *Gang, cfg Config) {
	n := ringCap(cfg.ROB)
	*s = sim{
		cfg:                cfg,
		g:                  g,
		branchesInOrder:    cfg.Issue.BranchesInOrder(),
		loadsInOrder:       cfg.Issue.LoadsInOrder(),
		loadsWaitStoreAddr: cfg.Issue.LoadsWaitStoreAddr(),
		st:                 make([]entryState, n),
		stMask:             int64(n) - 1,
		waiting:            make([]int64, 0, cfg.IssueWindow),
		awaitBranch:        -1,
	}
}

func (s *sim) result() Result {
	res := Result{
		Config:       s.cfg,
		Instructions: s.robBase,
		Cycles:       s.cycle,
		MLPCycles:    s.mlpCycles,
		Accesses:     s.accesses,
	}
	if s.mlpCycles > 0 {
		res.MLP = float64(s.mlpSum) / float64(s.mlpCycles)
	}
	return res
}

// step simulates one cycle, then leaps over any idle stretch after it.
func (s *sim) step() {
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
	s.done = s.finished()
}

func (s *sim) finished() bool {
	return s.srcDone && s.robBase == s.nextIdx && s.fqEnd == s.nextIdx && !s.havePendingIMiss
}

// noteAccess registers one useful off-chip access outstanding for lat
// cycles.
func (s *sim) noteAccess(lat int64) {
	s.outstanding++
	s.accesses++
	s.completions.push(s.cycle + lat)
}

func (s *sim) doCompletions() {
	for s.completions.len() > 0 && s.completions.min() <= s.cycle {
		s.completions.pop()
		s.outstanding--
	}
}

func (s *sim) retire() int {
	n := 0
	for n < s.cfg.RetireWidth && s.robBase < s.nextIdx && s.st[s.robBase&s.stMask].doneAt <= s.cycle {
		s.robBase++
		n++
	}
	return n
}

// operandAt returns the cycle the producer d instructions before abs
// delivers its value: 0 for no producer or a retired one, notIssued for
// one that has not issued yet.
func (s *sim) operandAt(abs int64, d uint32) int64 {
	if p := abs - int64(d); d != 0 && p >= s.robBase {
		return s.st[p&s.stMask].doneAt
	}
	return 0
}

// readyAt returns the cycle every operand of entry abs is available, or
// notIssued while one of its producers has not issued. Once all its
// producers have issued their doneAt values never change, so the answer
// is cached and each later check is one compare. A producer that retires
// afterwards stays ready, and its doneAt was ≤ the retire cycle, so the
// cached cycle stays exact.
func (s *sim) readyAt(abs int64, sl slot) int64 {
	e := &s.st[abs&s.stMask]
	if e.readyAt == notIssued {
		e.readyAt = max(s.operandAt(abs, sl.d1), s.operandAt(abs, sl.d2), s.operandAt(abs, sl.dm))
	}
	return e.readyAt
}

// issue picks ready, constraint-satisfying instructions oldest first. It
// returns the number issued. The blocking conditions track only older
// entries that did not issue this cycle, as the paper's configurations
// A–C require.
//
// Each walk also records wake, a lower bound on the next cycle a walk
// could issue anything, and issue skips the cycles before it. An entry
// that failed contributes the cycle its operands arrive, or the next
// cycle if it was ready but held by the ROB head or the MSHRs; an entry
// held behind an older waiting entry contributes nothing, since it
// cannot issue before that entry stops holding it.
func (s *sim) issue() int {
	if s.cycle < s.wake {
		return 0
	}
	issued := 0
	wake := int64(notIssued)
	// held ORs the flags of the older entries still waiting this cycle;
	// storeBlock marks an older waiting store whose address is not ready.
	var held uint8
	storeBlock := false
	w := s.waiting
	slots, mask := s.g.slots, s.g.mask
	k := 0
	for i, abs := range w {
		if issued == s.cfg.IssueWidth {
			k += copy(w[k:], w[i:])
			wake = s.cycle + 1
			break
		}
		sl := slots[abs&mask]
		retry := s.readyAt(abs, sl)
		if retry <= s.cycle {
			if retry = s.tryIssue(abs, sl.flags, held, storeBlock); retry == 0 {
				issued++
				continue
			}
		}
		wake = min(wake, retry)
		w[k] = abs
		k++
		held |= sl.flags
		if sl.flags&fMemWrite != 0 && !storeBlock {
			if t := s.operandAt(abs, sl.d1); t > s.cycle {
				// Younger loads wait for this store's address until t.
				storeBlock = true
				wake = min(wake, t)
			}
		}
	}
	s.waiting = w[:k]
	s.wake = wake
	return issued
}

// tryIssue attempts to issue the ready entry abs under the
// configuration's constraints. It returns 0 if the entry issued this
// cycle, and otherwise the earliest cycle it could issue if nothing
// older changes: notIssued when an older waiting entry holds it.
func (s *sim) tryIssue(abs int64, f, held uint8, storeBlock bool) int64 {
	// A pending serializing instruction drains the pipeline: nothing
	// younger issues, and the serializing instruction itself issues only
	// from the ROB head.
	if held&fSerial != 0 {
		return notIssued
	}
	if f&fSerial != 0 && abs != s.robBase {
		return s.cycle + 1
	}
	loadLike := f&fLoadLike != 0
	if f&fBranch != 0 && s.branchesInOrder && held&fBranch != 0 ||
		loadLike && (s.loadsInOrder && held&(fLoadLike|fMemWrite) != 0 || s.loadsWaitStoreAddr && storeBlock) {
		return notIssued
	}
	// Finite MSHRs: a new off-chip access waits for a free register.
	offChip := f&fMiss != 0 && !s.cfg.PerfectL2
	if offChip && s.cfg.MSHRs > 0 && s.outstanding >= s.cfg.MSHRs {
		return s.cycle + 1
	}

	done := s.cycle + 1 // fire-and-forget prefetches, stores, branches, ALU
	switch {
	case f&fPrefetch != 0:
		if offChip {
			s.noteAccess(int64(s.cfg.MissPenalty))
		}
	case loadLike:
		lat := int64(s.cfg.L1Latency)
		switch {
		case offChip:
			lat = int64(s.cfg.MissPenalty)
			s.noteAccess(lat)
		case f&fMiss != 0:
			lat = int64(s.cfg.L2Latency)
		}
		done = s.cycle + lat
	case f&fBranch != 0 && s.awaitBranch == abs:
		// Resolution redirects the front end.
		s.fetchStall = max(s.fetchStall, done+int64(s.cfg.MispredictPenalty))
		s.awaitBranch = -1
	}
	s.st[abs&s.stMask].doneAt = done
	return 0
}

func (s *sim) dispatch() int {
	n := 0
	for n < s.cfg.DispatchWidth && s.nextIdx < s.fqEnd {
		if s.nextIdx-s.robBase >= int64(s.cfg.ROB) || len(s.waiting) >= s.cfg.IssueWindow {
			break
		}
		s.st[s.nextIdx&s.stMask] = entryState{doneAt: notIssued, readyAt: notIssued}
		s.waiting = append(s.waiting, s.nextIdx)
		s.nextIdx++
		n++
	}
	if n > 0 {
		s.wake = min(s.wake, s.cycle+1)
	}
	return n
}

func (s *sim) fetch() int {
	// An off-chip instruction fetch in flight delivers its instruction
	// when the line arrives. A fetch still waiting for a free MSHR issues
	// its access as soon as one drains.
	if s.havePendingIMiss {
		if s.pendingNeedsMSHR {
			if s.cfg.MSHRs > 0 && s.outstanding >= s.cfg.MSHRs {
				return 0
			}
			s.noteAccess(int64(s.cfg.MissPenalty))
			s.pendingNeedsMSHR = false
			s.pendingIMissAt = s.cycle + int64(s.cfg.MissPenalty)
			return 1
		}
		if s.cycle < s.pendingIMissAt {
			return 0
		}
		s.fqEnd++
		s.havePendingIMiss = false
		return 1
	}
	if s.cycle < s.fetchStall || s.awaitBranch >= 0 {
		return 0
	}
	g := s.g
	n := 0
	for n < s.cfg.FetchWidth && s.fqEnd-s.nextIdx < int64(s.cfg.FetchBuffer) && !s.srcDone {
		if s.cfg.MaxInstructions > 0 && s.fetched >= s.cfg.MaxInstructions ||
			s.fetched >= g.head && !g.fill(s.fetched) {
			s.srcDone = true
			break
		}
		f := g.slots[s.fetched&g.mask].flags
		s.fetched++
		if f&fIMiss != 0 && !s.cfg.PerfectL2 {
			s.havePendingIMiss = true
			if s.cfg.MSHRs > 0 && s.outstanding >= s.cfg.MSHRs {
				// No MSHR free: the fetch waits; the pending branch above
				// issues the access when a register drains.
				s.pendingNeedsMSHR = true
				return n
			}
			// Fetch blocks until the line returns; the access overlaps
			// with whatever else is outstanding.
			s.noteAccess(int64(s.cfg.MissPenalty))
			s.pendingIMissAt = s.cycle + int64(s.cfg.MissPenalty)
			return n + 1
		}
		s.fqEnd++
		n++
		if f&fIMiss != 0 {
			// Perfect L2: the line comes from the L2, a short front-end
			// bubble.
			s.fetchStall = s.cycle + int64(s.cfg.L2Latency)
			break
		}
		if f&fMispred != 0 {
			// Fetch proceeds down the wrong path until resolution; the
			// trace holds only correct-path instructions, so fetch waits
			// for the branch to resolve and redirect.
			s.awaitBranch = s.fqEnd - 1
			break
		}
	}
	return n
}

// leap advances time to the next event when a cycle made no progress:
// everything in flight waits on a completion, an arriving I-line, or a
// front-end redirect.
func (s *sim) leap() {
	next := int64(1 << 62)
	for j := s.robBase; j < s.nextIdx; j++ {
		if d := s.st[j&s.stMask].doneAt; d > s.cycle && d < next {
			next = d
		}
	}
	if s.havePendingIMiss && !s.pendingNeedsMSHR && s.pendingIMissAt < next {
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
				s.cycle, s.nextIdx-s.robBase, s.fqEnd-s.nextIdx))
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
