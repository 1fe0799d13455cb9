package cyclesim

import (
	"fmt"
	"math/rand"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/workload"
)

// diffStream is a random annotated stream built to reach every pipeline
// path the gang reorganized: serializing atomics and barriers,
// mispredicted branches, off-chip instruction lines, useful and useless
// prefetches, and store→load aliasing through a small pool of addresses.
// A few annotation bits land on classes that never carry them, so the
// ring's flag packing must ignore exactly what the reference ignores.
func diffStream(rng *rand.Rand, n int) []annotate.Inst {
	reg := func() isa.Reg {
		switch x := rng.Intn(12); {
		case x == 0:
			return isa.NoReg
		case x == 1:
			return isa.RegZero
		default:
			return isa.Reg(1 + rng.Intn(9))
		}
	}
	ea := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Intn(1 << 28))
		}
		return 0x4000 + 8*uint64(rng.Intn(24)) + uint64(rng.Intn(8))
	}
	insts := make([]annotate.Inst, n)
	for i := range insts {
		in := &insts[i]
		in.Index = int64(i)
		in.PC = 0x1000 + uint64(i)*4
		in.Src1, in.Src2, in.Dst = reg(), reg(), reg()
		switch x := rng.Float64(); {
		case x < 0.20:
			in.Class = isa.Load
			in.EA = ea()
			in.DMiss = rng.Float64() < 0.12
		case x < 0.30:
			in.Class = isa.Store
			in.Dst = isa.NoReg
			in.EA = ea()
		case x < 0.35:
			in.Class = isa.Prefetch
			in.EA = ea()
			in.PMiss = rng.Float64() < 0.4
		case x < 0.47:
			in.Class = isa.Branch
			in.Dst = isa.NoReg
			in.Mispred = rng.Float64() < 0.08
		case x < 0.48:
			in.Class = isa.CASA
			in.EA = ea()
			in.DMiss = rng.Float64() < 0.2
		case x < 0.49:
			in.Class = isa.LDSTUB
			in.EA = ea()
			in.DMiss = rng.Float64() < 0.2
		case x < 0.50:
			in.Class = isa.MemBar
			in.Src1, in.Src2, in.Dst = isa.NoReg, isa.NoReg, isa.NoReg
		case x < 0.53:
			in.Class = isa.NOP
			in.Src1, in.Src2, in.Dst = isa.NoReg, isa.NoReg, isa.NoReg
		default:
			in.Class = isa.ALU
		}
		if rng.Float64() < 0.01 {
			// Stray bits on the wrong class.
			in.DMiss, in.PMiss, in.Mispred = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		}
		in.IMiss = rng.Float64() < 0.015
	}
	return insts
}

// diffConfig draws a heterogeneous pipeline: issue A/B/C, windows
// 32/64/128 (and a tiny one) with the ROB often larger than the issue
// window, MSHRs 0/2, PerfectL2, and assorted latencies, widths and
// instruction limits.
func diffConfig(rng *rand.Rand, n int) Config {
	cfg := Default([]int{200, 500, 1000, 37}[rng.Intn(4)])
	cfg.Issue = []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC}[rng.Intn(3)]
	cfg.IssueWindow = []int{32, 64, 128, 6}[rng.Intn(4)]
	cfg.ROB = cfg.IssueWindow * (1 + rng.Intn(3))
	cfg.MSHRs = []int{0, 2}[rng.Intn(2)]
	cfg.PerfectL2 = rng.Intn(4) == 0
	cfg.FetchBuffer = []int{32, 8, 3}[rng.Intn(3)]
	cfg.FetchWidth = 1 + rng.Intn(4)
	cfg.DispatchWidth = 1 + rng.Intn(4)
	cfg.IssueWidth = 1 + rng.Intn(4)
	cfg.RetireWidth = 1 + rng.Intn(4)
	cfg.MispredictPenalty = rng.Intn(12)
	if rng.Intn(3) == 0 {
		cfg.MaxInstructions = int64(1 + rng.Intn(n))
	}
	return cfg
}

// checkGang runs cfgs as one gang over insts and compares every result,
// field for field, with the pre-gang reference simulator run alone.
func checkGang(t *testing.T, label string, insts []annotate.Inst, cfgs []Config, g *Gang) {
	t.Helper()
	if g == nil {
		g = NewGang(&aiSource{insts: insts}, cfgs)
	}
	got := g.Run()
	for i, cfg := range cfgs {
		want := newRefSim(&aiSource{insts: insts}, cfg).Run()
		if got[i] != want {
			t.Fatalf("%s: config %d of %d (%+v)\n gang %+v\n  ref %+v", label, i, len(cfgs), cfg, got[i], want)
		}
	}
}

// TestRunGangMatchesReferenceRandom is the differential test of the
// gang rewrite: on random streams, gangs of 1–4 heterogeneous configs
// produce exactly the results of the reference simulator.
func TestRunGangMatchesReferenceRandom(t *testing.T) {
	trials := 160
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 500 + rng.Intn(2500)
		insts := diffStream(rng, n)
		cfgs := make([]Config, 1+trial%4)
		for i := range cfgs {
			cfgs[i] = diffConfig(rng, n)
		}
		checkGang(t, fmt.Sprintf("random trial %d", trial), insts, cfgs, nil)
	}
}

// TestRunGangMatchesReferenceWorkload runs the exhibits' own gang shapes
// — Table 3's three latencies and a measured/perfect-L2 pair — over a
// real annotated workload stream.
func TestRunGangMatchesReferenceWorkload(t *testing.T) {
	a := annotate.New(workload.MustNew(workload.Presets(1)[0]), annotate.Config{})
	a.Warm(20_000)
	insts := a.Collect(60_000)
	for _, win := range []int{32, 128} {
		for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigC} {
			var cfgs []Config
			for _, pen := range []int{200, 500, 1000} {
				cfg := Default(pen)
				cfg.IssueWindow, cfg.ROB, cfg.Issue = win, win, ic
				cfgs = append(cfgs, cfg)
			}
			checkGang(t, "table3 shape", insts, cfgs, nil)
		}
	}
	perf := Default(1000)
	perf.PerfectL2 = true
	checkGang(t, "characterize shape", insts, []Config{Default(1000), perf}, nil)
}

// TestRunGangStoreAddressWake pins the store-address term of the issue
// stage's wake bound. Under configuration B a missing load waits only
// for an older store's address, which arrives two cycles in from an L1
// hit, while the store's data waits on a long miss and a mispredicted
// branch on that miss stops dispatch. The load must issue as soon as the
// address arrives and overlap the first miss, not wait out the miss
// (under A it also waits for the store itself to issue; under C for
// nothing).
func TestRunGangStoreAddressWake(t *testing.T) {
	st := func(addr, data isa.Reg) annotate.Inst {
		return annotate.Inst{Inst: isa.Inst{Class: isa.Store, Src1: addr, Src2: data, Dst: isa.NoReg, EA: 0x100}}
	}
	br := annotate.Inst{Inst: isa.Inst{Class: isa.Branch, Src1: 1, Src2: isa.NoReg, Dst: isa.NoReg}, Mispred: true}
	far := ld(5, 6, true)
	far.EA = 0x9000
	insts := []annotate.Inst{ld(1, 7, true), ld(2, 8, false), st(2, 1), far, br}
	for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC} {
		cfg := Default(1000)
		cfg.Issue = ic
		checkGang(t, ic.String(), insts, []Config{cfg}, nil)
		if res := RunGang(&aiSource{insts: insts}, []Config{cfg})[0]; ic != core.ConfigA && res.MLP < 1.9 {
			t.Errorf("%v: MLP %.2f, want the two misses to overlap", ic, res.MLP)
		}
	}
}

// TestRunGangRingGrowth starts a gang on a ring far smaller than the
// scheduler's bound, so the doubling safety net in fill runs, and checks
// the results are still exact.
func TestRunGangRingGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	insts := diffStream(rng, 4000)
	cfgs := []Config{Default(200), Default(1000), diffConfig(rng, 4000)}
	g := NewGang(&aiSource{insts: insts}, cfgs)
	g.slots, g.mask = make([]slot, 4), 3
	checkGang(t, "tiny ring", insts, cfgs, g)
	if len(g.slots) <= 4 {
		t.Fatalf("ring never grew (len %d)", len(g.slots))
	}
}

// TestRunGangCachedReplay pins the gang on the production source: an
// atrace replay of a captured stream, as the exhibits run it.
func TestRunGangCachedReplay(t *testing.T) {
	a := annotate.New(workload.MustNew(workload.Presets(1)[1]), annotate.Config{})
	a.Warm(20_000)
	st := atrace.Capture(a, 40_000)
	insts := st.Replay()
	var all []annotate.Inst
	var in annotate.Inst
	for insts.NextInto(&in) {
		all = append(all, in)
	}
	cfgs := []Config{Default(200), Default(500), Default(1000)}
	got := RunGang(st.Replay(), cfgs)
	for i, cfg := range cfgs {
		if want := newRefSim(&aiSource{insts: all}, cfg).Run(); got[i] != want {
			t.Fatalf("config %d: gang %+v, ref %+v", i, got[i], want)
		}
	}
}

// TestNewGangRejectsNextOnlySource pins the decode contract: the ring
// reads through NextInto, so a source without it is refused at
// construction instead of failing mid-run.
func TestNewGangRejectsNextOnlySource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGang accepted a source without NextInto")
		}
	}()
	NewGang(nextOnly{}, []Config{Default(200)})
}

type nextOnly struct{}

func (nextOnly) Next() (annotate.Inst, bool) { return annotate.Inst{}, false }
