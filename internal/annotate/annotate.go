// Package annotate performs the functional first pass over a trace: it
// runs every instruction through the cache hierarchy and the branch
// predictor in program order and marks the events the epoch model and the
// cycle simulator consume — off-chip data misses (Dmiss), off-chip useful
// prefetches (Pmiss), off-chip instruction fetches (Imiss) and branch
// mispredictions. It also classifies missing-load value predictability
// (Table 6).
//
// Running classification once, in trace order, keeps the miss stream
// identical across simulators so that MLPsim and the cycle-accurate
// simulator disagree only about *timing*, exactly as in the paper's
// validation experiment (Table 3).
package annotate

import (
	"mlpsim/internal/bpred"
	"mlpsim/internal/isa"
	"mlpsim/internal/mem"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/storeset"
	"mlpsim/internal/trace"
	"mlpsim/internal/vpred"
)

// Inst is one dynamic instruction with its microarchitectural events.
type Inst struct {
	isa.Inst
	// Index is the 0-based position in the dynamic instruction stream.
	Index int64
	// DMiss marks a load/atomic whose data access goes off-chip.
	DMiss bool
	// PMiss marks a software prefetch whose access goes off-chip.
	PMiss bool
	// IMiss marks an instruction whose fetch goes off-chip (set on the
	// first instruction of the missing line).
	IMiss bool
	// SMiss marks a store whose write-allocate access goes off-chip.
	// Store misses are invisible to MLP with infinite store buffers (the
	// paper's baseline assumption) but drive the store-MLP extension.
	SMiss bool
	// Mispred marks a mispredicted branch.
	Mispred bool
	// VPOutcome is the value-prediction outcome for DMiss loads (NoPredict
	// when value prediction is disabled or the instruction is not a
	// missing load).
	VPOutcome vpred.Outcome
	// Dep is the store-set dependence-prediction outcome for loads and
	// atomics (DepNone when no predictor is configured or the
	// instruction does not read memory).
	Dep storeset.Outcome
	// Line is the L2 line address of the data access (memory instructions
	// only); off-chip accesses to the same line in one epoch merge.
	Line uint64
	// ILine is the L2 line address of the instruction's fetch.
	ILine uint64
}

// OffChip reports whether the instruction initiates any off-chip access.
func (in *Inst) OffChip() bool { return in.DMiss || in.PMiss || in.IMiss }

// Config selects the hierarchy and predictors used for annotation.
type Config struct {
	// Hierarchy is the cache configuration; the zero value selects the
	// paper's default hierarchy.
	Hierarchy mem.HierarchyConfig
	// Branch is the branch predictor; nil selects the default gshare.
	// Use bpred.Perfect{} for the limit study's perfect prediction.
	Branch bpred.Predictor
	// Value is the missing-load value predictor; nil disables value
	// prediction (all outcomes NoPredict). Use vpred.Perfect{} for the
	// limit study.
	Value vpred.Predictor
	// IPrefetch, when non-nil, is a hardware sequential instruction
	// prefetcher (the §5.6 extension): lines it covers never become
	// I-misses.
	IPrefetch *prefetch.Sequential
	// DPrefetch, when non-nil, is a hardware stride data prefetcher:
	// loads whose lines it covers never become D-misses.
	DPrefetch *prefetch.Stride
	// StoreSets, when non-nil, is a store-set memory dependence
	// predictor: every load/atomic is classified against the actual
	// producing store and the Outcome recorded in Inst.Dep for the
	// engine's disambiguation modes.
	StoreSets *storeset.Predictor
}

// Stats summarizes the annotated stream since the last ResetStats.
type Stats struct {
	Instructions uint64
	DMisses      uint64
	PMisses      uint64
	IMisses      uint64
	OffChip      uint64 // DMisses + PMisses + IMisses
	SMisses      uint64 // off-chip store misses (not in OffChip)
	Branches     uint64
	Mispredicts  uint64
	Prefetches   uint64 // prefetch instructions seen
	PrefetchUsed uint64 // off-chip prefetches whose line was later demanded
	VP           vpred.Stats
}

// MissRatePer100 returns off-chip accesses per 100 instructions — the
// paper's "L2 Miss Rate (per 100 insts)" of Table 1.
func (s Stats) MissRatePer100() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 100 * float64(s.OffChip) / float64(s.Instructions)
}

// Annotator wraps a trace source and yields annotated instructions.
type Annotator struct {
	src trace.Source
	h   *mem.Hierarchy
	bp  bpred.Predictor
	vp  vpred.Predictor

	idx       int64
	prevILine uint64
	haveILine bool
	stats     Stats

	ipf *prefetch.Sequential
	dpf *prefetch.Stride
	ss  *storeset.Predictor

	// pendingPrefetch is the set of off-chip-prefetched lines awaiting a
	// demand access (which marks them useful).
	pendingPrefetch pendingTable

	// raw is the in-flight source instruction. It lives on the annotator
	// rather than the stack so the pointer handed to the branch and value
	// predictors does not force a per-instruction heap escape.
	raw isa.Inst
}

// New builds an annotator over src.
func New(src trace.Source, cfg Config) *Annotator {
	if cfg.Hierarchy.L2.SizeBytes == 0 {
		cfg.Hierarchy = mem.DefaultHierarchy()
	}
	bp := cfg.Branch
	if bp == nil {
		bp = bpred.NewGshare(bpred.DefaultGshare())
	}
	vp := cfg.Value
	if vp == nil {
		vp = vpred.None{}
	}
	a := &Annotator{
		src: src,
		h:   mem.NewHierarchy(cfg.Hierarchy),
		bp:  bp,
		vp:  vp,
		ipf: cfg.IPrefetch,
		dpf: cfg.DPrefetch,
		ss:  cfg.StoreSets,
	}
	a.pendingPrefetch.init()
	return a
}

// Next implements a trace.Source-like iterator over annotated
// instructions.
func (a *Annotator) Next() (Inst, bool) {
	var out Inst
	ok := a.annotateOne(&out)
	return out, ok
}

// NextInto annotates the next instruction directly into *dst,
// overwriting every field; it is the in-place variant of Next that the
// engines' fetch paths detect and prefer.
func (a *Annotator) NextInto(dst *Inst) bool { return a.annotateOne(dst) }

// AnnotateInto fills dst with the next annotated instructions, writing
// them in place, and returns the count delivered (short only at stream
// end). Batch consumers like the columnar capture use it to pull blocks
// instead of paying one call and one Inst copy per instruction.
func (a *Annotator) AnnotateInto(dst []Inst) int {
	n := 0
	for n < len(dst) && a.annotateOne(&dst[n]) {
		n++
	}
	return n
}

// annotateOne runs one instruction through the hierarchy and predictors,
// overwriting every field of *out. It is the whole-stream hot path and
// allocates nothing.
func (a *Annotator) annotateOne(out *Inst) bool {
	raw := &a.raw
	var ok bool
	if *raw, ok = a.src.Next(); !ok {
		return false
	}
	*out = Inst{Inst: *raw, Index: a.idx}
	a.idx++
	a.stats.Instructions++

	// Instruction fetch: one hierarchy access per new line. A hardware
	// instruction prefetcher runs behind the demand stream and covers
	// upcoming sequential lines.
	out.ILine = a.h.LineAddr(raw.PC)
	if !a.haveILine || out.ILine != a.prevILine {
		if a.h.Access(mem.IFetch, raw.PC) {
			out.IMiss = true
			a.stats.IMisses++
		}
		if a.ipf != nil {
			a.ipf.OnAccess(a.h, raw.PC)
		}
		a.prevILine = out.ILine
		a.haveILine = true
	}

	switch {
	case raw.Class == isa.Prefetch:
		out.Line = a.h.LineAddr(raw.EA)
		a.stats.Prefetches++
		if a.h.Access(mem.DRead, raw.EA) {
			out.PMiss = true
			a.stats.PMisses++
			a.pendingPrefetch.insert(out.Line)
		}
	case raw.Class.IsMemRead():
		out.Line = a.h.LineAddr(raw.EA)
		if a.h.Access(mem.DRead, raw.EA) {
			out.DMiss = true
			a.stats.DMisses++
			out.VPOutcome = vpred.Observe(a.vp, raw)
			a.stats.VP.Add(out.VPOutcome)
		}
		if a.dpf != nil && raw.Class == isa.Load {
			a.dpf.OnLoad(a.h, raw.PC, raw.EA)
		}
		if a.ss != nil {
			out.Dep = a.ss.ObserveLoad(raw.PC, raw.EA, out.Index)
			if raw.Class.IsMemWrite() { // CASA/LDSTUB read-modify-write
				a.ss.ObserveStore(raw.PC, raw.EA, out.Index)
			}
		}
		a.consumePrefetch(out.Line)
	case raw.Class == isa.Store:
		out.Line = a.h.LineAddr(raw.EA)
		// Stores allocate (write-allocate) but never count toward MLP:
		// with infinite store buffers their misses are invisible. The
		// SMiss flag feeds the finite-store-buffer extension.
		if a.h.Access(mem.DWrite, raw.EA) {
			out.SMiss = true
			a.stats.SMisses++
		}
		if a.ss != nil {
			a.ss.ObserveStore(raw.PC, raw.EA, out.Index)
		}
		a.consumePrefetch(out.Line)
	case raw.Class == isa.Branch:
		a.stats.Branches++
		if bpred.Mispredicted(a.bp, raw) {
			out.Mispred = true
			a.stats.Mispredicts++
		}
	}
	return true
}

// consumePrefetch marks a pending prefetched line as used.
func (a *Annotator) consumePrefetch(line uint64) {
	if a.pendingPrefetch.len() == 0 {
		return
	}
	if a.pendingPrefetch.testAndClear(line) {
		a.stats.PrefetchUsed++
	}
}

// Stats returns the counters accumulated since the last ResetStats.
func (a *Annotator) Stats() Stats {
	s := a.stats
	s.OffChip = s.DMisses + s.PMisses + s.IMisses
	return s
}

// Hierarchy exposes the underlying cache hierarchy (for its detailed
// statistics).
func (a *Annotator) Hierarchy() *mem.Hierarchy { return a.h }

// IPrefetch exposes the hardware instruction prefetcher (nil when none is
// configured). The annotated-trace capture reads its statistics so cached
// replays can report them without re-running the prefetcher.
func (a *Annotator) IPrefetch() *prefetch.Sequential { return a.ipf }

// DPrefetch exposes the hardware data prefetcher (nil when none is
// configured).
func (a *Annotator) DPrefetch() *prefetch.Stride { return a.dpf }

// Position returns the dynamic index of the next instruction the
// annotator will yield — the number of instructions consumed since New.
// Segmented captures use it to validate segment boundaries: an annotator
// warmed over the prefix [0, k) is in exactly the state a monolithic
// pass has after k instructions (generation is deterministic and
// ResetStats preserves all training state), so Position is the resume
// point.
func (a *Annotator) Position() int64 { return a.idx }

// ResetStats zeroes the statistics while preserving all training and
// cache state: call it at the end of the warm-up window.
func (a *Annotator) ResetStats() {
	a.stats = Stats{}
	a.h.ResetStats()
}

// Warm consumes n instructions (training caches and predictors), then
// resets statistics. It returns the number actually consumed.
func (a *Annotator) Warm(n int64) int64 {
	var i int64
	for i = 0; i < n; i++ {
		if _, ok := a.Next(); !ok {
			break
		}
	}
	a.ResetStats()
	return i
}

// Collect drains up to max annotated instructions (the whole stream when
// max < 0). The result is sized from max up front instead of growing from
// zero capacity append by append.
func (a *Annotator) Collect(max int64) []Inst {
	if max >= 0 {
		out := make([]Inst, max)
		return out[:a.AnnotateInto(out)]
	}
	var out []Inst
	for {
		n := len(out)
		out = append(out[:n], make([]Inst, 4096)...)
		got := a.AnnotateInto(out[n:])
		out = out[:n+got]
		if got < 4096 {
			return out
		}
	}
}
