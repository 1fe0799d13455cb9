package experiments

import (
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

// cyclePoint is one cycle-simulator run.
func cyclePoint(w workload.Config, cfg cyclesim.Config) Point {
	return Point{Kind: CycleGang, Workload: w, Cycle: []cyclesim.Config{cfg}}
}

// goldenSetups returns the same experiment setup twice: once routed
// through the annotated-trace cache and once on the direct
// annotate-per-run path.
func goldenSetups(seed int64) (cached, direct Setup) {
	cached = Quick(seed)
	cached.Warmup = 200_000
	cached.Measure = 500_000
	cached.Parallelism = 4 // exercise the worker pool + singleflight under -race
	direct = cached
	direct.Cache = nil
	return cached, direct
}

// TestCachedPathMatchesDirect is the golden determinism check of the
// annotated-trace cache: for every workload preset, the cached-replay and
// direct-annotation paths must produce bit-identical core.Result and
// cyclesim.Result values.
func TestCachedPathMatchesDirect(t *testing.T) {
	cached, direct := goldenSetups(1)

	coreConfigs := []struct {
		name string
		cfg  core.Config
	}{
		{"64C", core.Default()},
		{"64D-runahead", core.Default().WithIssue(core.ConfigD).WithRunahead()},
		{"inorder-stall-on-use", core.Config{Mode: core.InOrderStallOnUse}},
	}
	cycleConfigs := []struct {
		name string
		cfg  cyclesim.Config
	}{
		{"default", cyclesim.Default(400)},
	}

	for _, w := range cached.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, cc := range coreConfigs {
				got := runOne(cached, enginePoint(w, cc.cfg, annotate.Config{}))
				want := runOne(direct, enginePoint(w, cc.cfg, annotate.Config{}))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("core %s: cached result differs from direct\ncached: %+v\ndirect: %+v", cc.name, got, want)
				}
			}
			for _, cc := range cycleConfigs {
				got := runOne(cached, cyclePoint(w, cc.cfg))
				want := runOne(direct, cyclePoint(w, cc.cfg))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cyclesim %s: cached result differs from direct\ncached: %+v\ndirect: %+v", cc.name, got, want)
				}
			}
		})
	}
}

// TestSegmentedCacheMatchesDirect re-runs the golden determinism check
// through the disk-backed cache: the segmented capture published as an
// MLPCOLS2 spill, then the same spill reloaded memory-mapped by a fresh
// cache, must both stay bit-identical to the direct annotate-per-run
// path.
func TestSegmentedCacheMatchesDirect(t *testing.T) {
	cached, direct := goldenSetups(1)
	dir := t.TempDir()
	cached.Cache.SetDir(dir)
	reloaded := cached
	reloaded.Cache = atrace.NewCache()
	reloaded.Cache.SetDir(dir)

	cfgs := []core.Config{
		core.Default(),
		core.Default().WithIssue(core.ConfigD).WithRunahead(),
	}
	for _, w := range cached.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, s := range []Setup{cached, reloaded} {
				for _, cfg := range cfgs {
					got := runOne(s, enginePoint(w, cfg, annotate.Config{}))
					want := runOne(direct, enginePoint(w, cfg, annotate.Config{}))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("spilled cached result differs from direct\ncached: %+v\ndirect: %+v", got, want)
					}
				}
				got := runOne(s, cyclePoint(w, cyclesim.Default(400)))
				want := runOne(direct, cyclePoint(w, cyclesim.Default(400)))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("spilled cached cyclesim result differs from direct\ncached: %+v\ndirect: %+v", got, want)
				}
			}
		})
	}
	if st := cached.Cache.Stats(); st.Builds != uint64(len(cached.Workloads)) {
		t.Errorf("spilling cache performed %d builds for %d workloads", st.Builds, len(cached.Workloads))
	}
	if st := reloaded.Cache.Stats(); st.Builds != 0 || st.DiskHits != uint64(len(cached.Workloads)) {
		t.Errorf("reloading cache stats %+v, want %d disk hits and no builds", st, len(cached.Workloads))
	}
}

// TestCachedStatsMatchDirect checks the StreamStats points (Table 6 /
// Compare) the same way.
func TestCachedStatsMatchDirect(t *testing.T) {
	cached, direct := goldenSetups(2)
	w := cached.Workloads[0]
	acfg := func() annotate.Config {
		return annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}
	}
	got := runOne(cached, Point{Kind: StreamStats, Workload: w, Annot: acfg()}).Annot
	want := runOne(direct, Point{Kind: StreamStats, Workload: w, Annot: acfg()}).Annot
	if got != want {
		t.Errorf("cached stats %+v, want %+v", got, want)
	}
}

// TestCacheDeduplicatesAcrossRunners asserts the tentpole property: a
// sweep that runs many engine configurations over one workload performs
// exactly one annotation pass per annotation config.
func TestCacheDeduplicatesAcrossRunners(t *testing.T) {
	s := Quick(3)
	s.Warmup = 100_000
	s.Measure = 250_000
	s.Workloads = s.Workloads[:1]
	s.Parallelism = 4

	for _, cfg := range []core.Config{
		core.Default(),
		core.Default().WithROB(256),
		core.Default().WithIssue(core.ConfigD),
		core.Default().WithIssue(core.ConfigD).WithRunahead(),
	} {
		runOne(s, enginePoint(s.Workloads[0], cfg, annotate.Config{}))
	}
	runOne(s, cyclePoint(s.Workloads[0], cyclesim.Default(400)))

	st := s.Cache.Stats()
	if st.Builds != 1 {
		t.Errorf("5 runs performed %d annotation passes, want 1", st.Builds)
	}
	if st.Hits != 4 {
		t.Errorf("cache hits %d, want 4", st.Hits)
	}
}

// TestPrefetchConfigsAreCached: untrained deterministic hardware
// prefetchers are part of the cache key, so a prefetch configuration gets
// one shared annotation pass like any other, and the run's Result carries
// the prefetcher statistics from the stream's metadata — identical to
// what a direct run's instances would report.
func TestPrefetchConfigsAreCached(t *testing.T) {
	s := Quick(4)
	s.Warmup = 50_000
	s.Measure = 100_000
	w := workload.Strided(s.Seed)
	acfg := func() annotate.Config {
		return annotate.Config{DPrefetch: prefetch.NewStride(1024, 4)}
	}

	res := runOne(s, enginePoint(w, core.Default(), acfg()))
	if res.Engine.Instructions != s.Measure {
		t.Errorf("cached run consumed %d instructions, want %d", res.Engine.Instructions, s.Measure)
	}
	if st := s.Cache.Stats(); st.Builds != 1 {
		t.Errorf("prefetch config performed %d annotation passes, want 1 (stats %+v)", st.Builds, st)
	}
	dst := res.DPrefetch
	if dst.Issued == 0 {
		t.Error("stream metadata carries no data-prefetcher statistics")
	}

	direct := s
	direct.Cache = nil
	dpf := prefetch.NewStride(1024, 4)
	dres := runOne(direct, enginePoint(w, core.Default(), annotate.Config{DPrefetch: dpf}))
	if !reflect.DeepEqual(res, dres) {
		t.Errorf("cached result differs from direct\ncached: %+v\ndirect: %+v", res, dres)
	}
	if got := dpf.Stats(); got != dst {
		t.Errorf("metadata stats %+v differ from direct-instance stats %+v", dst, got)
	}
}

// TestTrainedPrefetcherBypassesCache: an instance that has already seen
// traffic cannot be keyed (its state is not derivable from the
// configuration), so the run must fall back to the direct path and the
// Result carries the instance's own statistics.
func TestTrainedPrefetcherBypassesCache(t *testing.T) {
	s := Quick(5)
	s.Warmup = 50_000
	s.Measure = 100_000
	w := workload.Strided(s.Seed)

	dpf := prefetch.NewStride(1024, 4)
	direct := s
	direct.Cache = nil
	runOne(direct, enginePoint(w, core.Default(), annotate.Config{DPrefetch: dpf}))
	if dpf.Untrained() {
		t.Fatal("direct run left the prefetcher untrained")
	}

	res := runOne(s, enginePoint(w, core.Default(), annotate.Config{DPrefetch: dpf}))
	if res.Engine.Instructions != s.Measure {
		t.Errorf("fallback run consumed %d instructions, want %d", res.Engine.Instructions, s.Measure)
	}
	if st := s.Cache.Stats(); st.Builds != 0 || st.Misses != 0 {
		t.Errorf("trained prefetcher config touched the cache (stats %+v); must use the direct path", st)
	}
	if res.DPrefetch != dpf.Stats() {
		t.Errorf("result prefetch stats %+v, want the instance's own %+v", res.DPrefetch, dpf.Stats())
	}
}
