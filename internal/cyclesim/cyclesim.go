// Package cyclesim is the cycle-level out-of-order processor simulator
// used to validate MLPsim, standing in for the paper's proprietary
// cycle-accurate SPARC simulator (§5.2, Tables 1, 3 and 4).
//
// It models a conventional pipeline — fetch through a fetch buffer,
// rename/dispatch into an issue window and reorder buffer, oldest-first
// issue with the Table 2 constraint configurations A–C, latency-accurate
// execution, and in-order retirement — while measuring MLP(t) every cycle
// exactly as §2.1 prescribes: the number of useful off-chip accesses
// outstanding, averaged over the cycles where at least one is outstanding.
//
// Unlike MLPsim it is fully timing-aware: off-chip accesses issue and
// complete at their real cycles, so overlap is emergent rather than
// assumed. Agreement between the two (within a few percent at long
// off-chip latencies) is the paper's central validation result.
//
// Exhibits that sweep several pipeline configurations over one stream
// run them as a lock-step gang (RunGang): the stream is decoded and its
// dependences bound once, and every configuration reads the shared
// result in place. New(...).Run() is the gang of one.
package cyclesim

import (
	"fmt"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
)

// Config parameterizes one cycle-simulator run.
type Config struct {
	// IssueWindow, ROB and FetchBuffer mirror the MLPsim structures.
	IssueWindow int
	ROB         int
	FetchBuffer int
	// Issue must be one of configurations A, B or C — like the paper's
	// cycle-accurate simulator, out-of-order branch issue is not
	// supported (§5.2).
	Issue core.IssueConfig
	// Widths of the pipeline stages (instructions per cycle).
	FetchWidth, DispatchWidth, IssueWidth, RetireWidth int
	// MissPenalty is the off-chip access latency in cycles (200-1000).
	MissPenalty int
	// L1Latency and L2Latency are the on-chip load-use latencies.
	L1Latency, L2Latency int
	// MispredictPenalty is the front-end refill delay after a mispredicted
	// branch resolves.
	MispredictPenalty int
	// MSHRs bounds the number of off-chip accesses outstanding at once;
	// 0 models the paper's unlimited baseline.
	MSHRs int
	// PerfectL2 treats every off-chip access as an L2 hit: the run
	// measures CPI_perf for the CPI decomposition of §2.2.
	PerfectL2 bool
	// MaxInstructions bounds the run (0 = entire stream).
	MaxInstructions int64
}

// maxROB bounds the reorder buffer so a producer's backward distance
// fits the ring's 32-bit dependence links.
const maxROB = 1<<32 - 1

// Default returns the default pipeline matching MLPsim's default
// configuration (§5.1) at the given off-chip latency.
func Default(missPenalty int) Config {
	return Config{
		IssueWindow:       64,
		ROB:               64,
		FetchBuffer:       32,
		Issue:             core.ConfigC,
		FetchWidth:        4,
		DispatchWidth:     4,
		IssueWidth:        4,
		RetireWidth:       4,
		MissPenalty:       missPenalty,
		L1Latency:         2,
		L2Latency:         12,
		MispredictPenalty: 8,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.IssueWindow <= 0 || c.ROB < c.IssueWindow || int64(c.ROB) > maxROB:
		return fmt.Errorf("cyclesim: bad window sizes IW=%d ROB=%d", c.IssueWindow, c.ROB)
	case c.Issue > core.ConfigC:
		return fmt.Errorf("cyclesim: issue configuration %v not supported (A-C only)", c.Issue)
	case c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("cyclesim: stage widths must be positive")
	case c.MissPenalty <= 0:
		return fmt.Errorf("cyclesim: miss penalty %d must be positive", c.MissPenalty)
	case c.L1Latency <= 0 || c.L2Latency < c.L1Latency:
		return fmt.Errorf("cyclesim: bad cache latencies L1=%d L2=%d", c.L1Latency, c.L2Latency)
	case c.FetchBuffer <= 0:
		return fmt.Errorf("cyclesim: fetch buffer must be positive")
	case c.MSHRs < 0:
		return fmt.Errorf("cyclesim: negative MSHR count %d", c.MSHRs)
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	Config       Config
	Instructions int64
	Cycles       int64
	// MLP is the measured average memory-level parallelism: useful
	// off-chip accesses outstanding averaged over non-zero cycles.
	MLP float64
	// MLPCycles is the number of cycles with at least one useful off-chip
	// access outstanding.
	MLPCycles int64
	// Accesses counts useful off-chip accesses issued.
	Accesses uint64
}

// CPI is cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// MissRatePer100 is off-chip accesses per 100 instructions.
func (r *Result) MissRatePer100() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 100 * float64(r.Accesses) / float64(r.Instructions)
}

// eventHeap is a hand-rolled min-heap of completion cycles. Unlike a
// container/heap adapter it pushes and pops typed int64s — no
// interface{} boxing allocation per event — and its backing slice is
// reused across pops, so the steady state allocates nothing.
type eventHeap struct{ a []int64 }

func (h *eventHeap) len() int   { return len(h.a) }
func (h *eventHeap) min() int64 { return h.a[0] }

func (h *eventHeap) push(v int64) {
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

func (h *eventHeap) pop() int64 {
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

// inPlaceSource is the decode interface the gang's ring reads through:
// every production source (atrace replays, the annotator) decodes
// straight into a caller-provided Inst, so no instruction is ever copied
// by value on the way into the ring.
type inPlaceSource interface {
	NextInto(*annotate.Inst) bool
}

// Sim is one cycle-level simulation: a gang of one.
type Sim struct{ g *Gang }

// New builds a simulation over the annotated source, which must also
// implement NextInto(*annotate.Inst) bool (atrace replays and the
// annotator do). It panics on invalid configurations.
func New(src core.AnnotatedSource, cfg Config) *Sim {
	return &Sim{g: NewGang(src, []Config{cfg})}
}

// Run simulates to completion and returns the result.
func (s *Sim) Run() Result { return s.g.Run()[0] }
