package cyclesim

import (
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// TestCycleSimZeroAllocSteadyState pins the simulator's steady state at
// zero allocations per instruction, alone and as a Table 3 gang of
// three: the shared ring, each simulation's entry-state ring and issue
// list are preallocated at construction, and the completion heap is
// typed (no container/heap boxing), so a full run over 200K instructions
// may allocate only construction-scale amounts — heap-slice doublings of
// the completion heaps, nothing proportional to the instruction count.
func TestCycleSimZeroAllocSteadyState(t *testing.T) {
	const n = 200_000
	a := annotate.New(workload.MustNew(workload.Presets(1)[0]), annotate.Config{})
	a.Warm(10_000)
	insts := a.Collect(n)
	for _, cfgs := range [][]Config{
		{Default(400)},
		{Default(200), Default(500), Default(1000)},
	} {
		g := NewGang(&aiSource{insts: insts}, cfgs)

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := g.Run()
		runtime.ReadMemStats(&m1)

		for i := range res {
			if res[i].Instructions != n {
				t.Fatalf("K=%d config %d retired %d instructions, want %d", len(cfgs), i, res[i].Instructions, n)
			}
		}
		if allocs := m1.Mallocs - m0.Mallocs; allocs > 100 {
			t.Errorf("K=%d: Run allocated %d objects over %d instructions, want construction-only (≤ 100)", len(cfgs), allocs, n)
		}
	}
}
