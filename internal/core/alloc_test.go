package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
)

// replayStream builds an annotated-trace stream from a random
// instruction mix so the engine runs against the real replay decoder
// (the production fetch path).
func replayStream(n int) *atrace.Stream {
	rng := rand.New(rand.NewSource(1234))
	insts := randomStream(rng, n, 0.05, 0.01, 0.04, 0.02)
	b := atrace.NewBuilder(6, int64(n))
	for i := range insts {
		b.Append(insts[i])
	}
	return b.Finish(annotate.Stats{})
}

// moduleAllocs runs fn with every heap allocation profiled
// (runtime.MemProfileRate = 1) and describes each allocation made
// during fn by this module's code: a stack whose innermost mlpsim/ frame
// is not this helper's own bookkeeping. Allocations the runtime makes on
// its own behalf (background scavenger, timers) carry no mlpsim/ frame
// and are ignored, so the check is exact without being flaky: a single
// allocated byte in the engine fails it, a runtime timer does not.
func moduleAllocs(fn func()) []string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before := allocsBySite()
	fn()
	runtime.GC() // publishes every allocation made by fn
	var sites []string
	for site, n := range allocsBySite() {
		if n > before[site] {
			sites = append(sites, fmt.Sprintf("%d alloc(s) at %s", n-before[site], site))
		}
	}
	sort.Strings(sites)
	return sites
}

// allocsBySite snapshots the cumulative allocation profile as object
// counts keyed by stack (innermost first), keeping only stacks whose
// innermost mlpsim/ frame is outside the two helpers here.
func allocsBySite() map[string]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[string]int64)
	for _, r := range recs[:n] {
		var stack []string
		owner := ""
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			stack = append(stack, f.Function)
			if owner == "" && strings.HasPrefix(f.Function, "mlpsim/") {
				owner = f.Function
			}
		}
		if owner == "" || strings.HasSuffix(owner, ".moduleAllocs") || strings.HasSuffix(owner, ".allocsBySite") {
			continue
		}
		sites[strings.Join(stack, " < ")] += r.AllocObjects
	}
	return sites
}

// TestEngineRunZeroAllocSteadyState asserts the satellite guarantee
// behind BENCH_5: with the slot ring and pending buffer preallocated
// from the Config window bounds, replay-driven Run allocates nothing in
// steady state — engine construction excluded. The check counts every
// allocation (moduleAllocs), not a per-op average that runtime
// background bytes can push above zero.
func TestEngineRunZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	st := replayStream(200_000)
	configs := []Config{
		Default(),
		Default().WithWindow(256).WithIssue(ConfigA),
		func() Config {
			c := Default()
			c.Runahead, c.MaxRunahead = true, 512
			return c
		}(),
		func() Config {
			c := Default()
			c.Mode = InOrderStallOnUse
			return c
		}(),
	}
	for _, cfg := range configs {
		NewEngine(st.Replay(), cfg).Run() // warm any one-time state
		e := NewEngine(st.Replay(), cfg)
		if sites := moduleAllocs(func() { e.Run() }); len(sites) != 0 {
			t.Errorf("%s: Run allocated:\n%s", cfg.Name(), strings.Join(sites, "\n"))
		}
	}
}

// TestRunGangZeroAllocSteadyState extends the guarantee to the gang
// path: once NewGang has built the ring and engines, Run allocates
// nothing (ring growth aside, which the min-position schedule avoids on
// miss-bearing streams). The config vectors cover K=1 (the BENCH_5
// residual), the pure SoA fast path, the pure scalar fallback, and a
// mixed gang where both ride one ring.
func TestRunGangZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	st := replayStream(200_000)
	inorder := Default()
	inorder.Mode = InOrderStallOnUse
	vectors := map[string][]Config{
		"k1-soa":    {Default()},
		"k1-scalar": {inorder},
		"soa": {
			Default(),
			Default().WithWindow(32),
			Default().WithWindow(128).WithIssue(ConfigA),
		},
		"mixed": {
			Default(),
			inorder,
			Default().WithWindow(64).WithIssue(ConfigE),
		},
	}
	for name, cfgs := range vectors {
		NewGang(st.Replay(), cfgs).Run() // warm any one-time state
		g := NewGang(st.Replay(), cfgs)
		if sites := moduleAllocs(func() { g.Run() }); len(sites) != 0 {
			t.Errorf("%s: Gang.Run allocated:\n%s", name, strings.Join(sites, "\n"))
		}
	}
}
