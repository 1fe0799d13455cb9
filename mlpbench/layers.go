package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/experiments"
	"mlpsim/internal/isa"
	"mlpsim/internal/smt"
	"mlpsim/internal/workload"
)

// LayerDef is one per-layer metric and the end-to-end metric it should
// move, on which workload. The table is the benchmark's layer map.
type LayerDef struct {
	Name, Unit, Better, Moves string
}

var layerDefs = []LayerDef{
	{"workload.gen_ns_per_inst", "ns", "lower", "setup_s on both sweeps; req_tail_ms on daemon-open"},
	{"annotate.ns_per_inst", "ns", "lower", "setup_s on both sweeps; req_tail_ms on daemon-open (self time, generation excluded)"},
	{"annotate.offchip_per_100", "count", "higher", "nothing: simulated, repeats exactly for a seed"},
	{"atrace.capture_ns_per_inst", "ns", "lower", "setup_s on both sweeps; req_tail_ms on daemon-open"},
	{"atrace.replay_ns_per_inst", "ns", "lower", "wall_s on both sweeps (9% of gang-sweep CPU, 15% of solo-sweep)"},
	{"atrace.spill_write_ms", "ms", "lower", "req_tail_ms on daemon-open"},
	{"atrace.spill_open_ms", "ms", "lower", "req_tail_ms on daemon-open"},
	{"atrace.hit_frac", "ratio", "higher", "rss_peak_mb and setup_s on both sweeps"},
	{"atrace.builds", "count", "lower", "rss_peak_mb and setup_s on both sweeps"},
	{"atrace.heap_mb", "MB", "lower", "rss_peak_mb on both sweeps"},
	{"core.engine_ns_per_inst", "ns", "lower", "wall_s on solo-sweep; gang-sweep a little (8% of its CPU)"},
	{"core.gang_ns_per_cfg_inst", "ns", "lower", "wall_s on gang-sweep (82% of its CPU)"},
	{"core.gang_width", "count", "higher", "wall_s on gang-sweep; ROADMAP item 1 should raise it on solo-sweep"},
	{"core.soa_inst_frac", "ratio", "higher", "wall_s on gang-sweep; ROADMAP item 1 should raise it on solo-sweep"},
	{"cyclesim.ns_per_inst_200", "ns", "lower", "wall_s on solo-sweep (55% of its CPU); gang-sweep a little (7%, figure9)"},
	{"cyclesim.ns_per_inst_1000", "ns", "lower", "wall_s on solo-sweep (55% of its CPU); gang-sweep a little (7%, figure9)"},
	{"cyclesim.cpi", "count", "lower", "nothing: simulated, repeats exactly for a seed"},
	{"smt.run_ms", "ms", "lower", "wall_s on solo-sweep (4% of its CPU)"},
	{"smt.sched_ms", "ms", "lower", "wall_s on solo-sweep (10% of its CPU)"},
	{"render.json_ms", "ms", "lower", "req_p50_ms on daemon-open"},
	{"render.csv_ms", "ms", "lower", "req_p50_ms on daemon-open"},
	{"server.hit_ms", "ms", "lower", "req_p50_ms and req_tail_ms on daemon-open"},
	{"server.miss_ms", "ms", "lower", "req_p50_ms and req_tail_ms on daemon-open"},
	{"server.result_hit_frac", "ratio", "higher", "goodput_rps on daemon-open"},
	{"peer.points_ms", "ms", "lower", "none yet: baseline for a later fleet workload"},
	{"loadgen.lag_ms", "ms", "lower", "none: the latest send at the reference rate; shows whether daemon-open is valid"},
	{"loadgen.backlog", "count", "lower", "none: shows whether daemon-open is valid"},
	{"trace.overhead_frac", "ratio", "lower", "none"},
}

// perLayerNames lists every per-layer metric, the 23 exhibit spans
// included.
func perLayerNames() []string {
	var names []string
	for _, d := range layerDefs {
		names = append(names, d.Name)
	}
	for _, r := range experiments.All() {
		names = append(names, exhibitMetric(r.ID))
	}
	return names
}

func exhibitMetric(id string) string { return "exhibit." + id + "_s" }

// moves says which end-to-end metric a per-layer metric should move,
// and on which workload; "" for an end-to-end metric.
func moves(name string) string {
	for _, d := range layerDefs {
		if d.Name == name {
			return "moves " + d.Moves
		}
	}
	for _, g := range gangExhibits {
		if name == exhibitMetric(g) {
			return "moves wall_s on gang-sweep"
		}
	}
	if strings.HasPrefix(name, "exhibit.") {
		return "moves wall_s on solo-sweep"
	}
	return ""
}

// sweepLayers adds the per-layer metrics of a traced sweep run: cache
// and gang counters of the workload's Setup, one traced pass of the
// exhibits the workload leaves out, a short open-loop run against a real
// daemon, and the probes every workload shares.
func sweepLayers(c RunConfig, rep *Report, chk *checker, s experiments.Setup, ids []string, last passResult) error {
	st := s.Cache.Stats()
	g := s.GangStats
	cacheLayers(rep, float64(st.Hits), float64(st.Misses), float64(st.Builds), float64(st.Bytes),
		float64(g.Gangs.Load()), float64(g.Configs.Load()), float64(g.SoAInsts.Load()), float64(g.ScalarInsts.Load()))

	others := runPass(s, pickRunners(ids, true), c.Rec)
	chk.check("traced pass of the other exhibits", others)
	outputs := map[string]fmt.Stringer{}
	for id, out := range last.outputs {
		outputs[id] = out
	}
	for id, out := range others.outputs {
		outputs[id] = out
	}

	d, _, err := startDaemon(c, c.Seed, filepath.Join(c.Work, "probe-cache"))
	if err != nil {
		return err
	}
	defer d.kill()
	ctx := context.Background()
	cl := NewClient(d.base, 2, requestTimeout)
	defer cl.Close()
	log := &responseLog{rep: rep}
	steps := []Step{{Rate: 10, Duration: 2 * time.Second}}
	reqs := Schedule(rand.New(rand.NewSource(c.Seed)), steps, Mix{
		Exhibits: []string{"figure2", "table5", "ext-bandwidth"},
		HotSeeds: []int64{c.Seed}, Formats: []string{"json"}, FormatWeights: []float64{1},
	})[0]
	outs, lag := RunOpenLoop(ctx, cl, reqs, requestTimeout, c.Rec)
	ok := make([]bool, len(reqs))
	for i, o := range outs {
		ok[i] = log.note(reqs[i], o.Status, o.BodySHA, o.Err)
	}
	probe := AnalyzeStep(steps[0], reqs, outs, func(i int) bool { return !ok[i] })
	rep.layer("loadgen.lag_ms", maxLagMS(lag), "ms")
	rep.layer("loadgen.backlog", float64(probe.Backlog), "count")
	if err := serverLayers(ctx, rep, d, cl, log, c.Seed); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop probe daemon: %w", err)
	}
	verifyResponses(c, nil, rep, log.list, chk.digests)
	return commonLayers(c, rep, outputs)
}

// daemonCacheLayers reads the cache and gang counters off a daemon's
// /metrics.
func daemonCacheLayers(rep *Report, m map[string]float64) {
	cacheLayers(rep, m["mlpsim_trace_cache_hits_total"], m["mlpsim_trace_cache_misses_total"],
		m["mlpsim_trace_cache_builds_total"], m["mlpsim_trace_cache_bytes"],
		m["mlpsim_gang_runs_total"], m["mlpsim_gang_configs_total"],
		m["mlpsim_gang_soa_insts_total"], m["mlpsim_gang_scalar_fallback_insts_total"])
}

// cacheLayers reports trace-cache and gang occupancy counters. A ratio
// with nothing to divide reads 0.
func cacheLayers(rep *Report, hits, misses, builds, bytes, gangs, configs, soa, scalar float64) {
	rep.layer("atrace.hit_frac", ratio(hits, hits+misses), "ratio")
	rep.layer("atrace.builds", builds, "count")
	rep.layer("atrace.heap_mb", bytes/(1<<20), "MB")
	rep.layer("core.gang_width", ratio(configs, gangs), "count")
	rep.layer("core.soa_inst_frac", ratio(soa, soa+scalar), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverLayers times result-cache misses and hits, and a peer-points
// fetch, against a running daemon, then reads its result-cache hit
// ratio.
func serverLayers(ctx context.Context, rep *Report, d *daemon, cl *Client, log *responseLog, seed int64) error {
	probeSeed := 9_000_000 + seed // a seed no workload request uses
	var hits, misses []float64
	for _, id := range []string{"figure2", "table5", "ext-bandwidth"} {
		r := Request{Exhibit: id, Seed: probeSeed, Format: "json"}
		for i := 0; i < 2; i++ {
			t := time.Now()
			status, sha, err := cl.Get(ctx, r)
			ms := float64(time.Since(t)) / 1e6
			if !log.note(r, status, sha, err) {
				continue
			}
			if i == 0 {
				misses = append(misses, ms)
			} else {
				hits = append(hits, ms)
			}
		}
	}
	rep.layer("server.miss_ms", Median(misses), "ms")
	rep.layer("server.hit_ms", Median(hits), "ms")

	points := make([]string, 75) // figure4's first batch: 3 workloads x 25 configs
	for i := range points {
		points[i] = fmt.Sprint(i)
	}
	url := fmt.Sprintf("%s/v1/peer/points?exhibit=figure4&batch=0&points=%s&seed=%d", d.base, strings.Join(points, ","), probeSeed)
	var peer []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		status, _, err := cl.fetch(ctx, url)
		log.rep.Attempted++
		if err != nil || status != 200 {
			log.rep.fail("peer points: status %d, %v", status, err)
			continue
		}
		peer = append(peer, float64(time.Since(t))/1e6)
	}
	rep.layer("peer.points_ms", Median(peer), "ms")

	m, err := d.scrape()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	h, mi := m["mlpsim_result_cache_hits_total"], m["mlpsim_result_cache_misses_total"]
	rep.layer("server.result_hit_frac", ratio(h, h+mi), "ratio")
	return nil
}

// commonLayers adds what every traced run reports: the exhibit spans,
// rendering of every exhibit's output, and the module probes.
func commonLayers(c RunConfig, rep *Report, outputs map[string]fmt.Stringer) error {
	spans := byName(c.Rec.Spans())
	for _, r := range experiments.All() {
		d, ok := spans["exhibit."+r.ID]
		if !ok {
			return fmt.Errorf("no span recorded for exhibit %s", r.ID)
		}
		rep.layer(exhibitMetric(r.ID), Median(d), "s")
	}

	var jsonT, csvT time.Duration
	var buf bytes.Buffer
	for _, id := range sortedKeys(outputs) {
		out := outputs[id]
		buf.Reset()
		jsonT += c.Rec.Time("render.json", 0, func(int64) { experiments.WriteJSON(&buf, out) })
		buf.Reset()
		csvT += c.Rec.Time("render.csv", 0, func(int64) { experiments.WriteCSV(&buf, out) })
	}
	rep.layer("render.json_ms", float64(jsonT)/1e6, "ms")
	rep.layer("render.csv_ms", float64(csvT)/1e6, "ms")
	rep.notef("render.* total over %d exhibit results", len(outputs))
	return probeModules(c, rep)
}

// sliceSource replays pre-generated instructions, so annotation can be
// timed without generation inside it.
type sliceSource struct {
	insts []isa.Inst
	i     int
}

func (s *sliceSource) Next() (isa.Inst, bool) {
	if s.i >= len(s.insts) {
		return isa.Inst{}, false
	}
	s.i++
	return s.insts[s.i-1], true
}

// probeModules times direct calls into each module's public functions
// over the three preset workloads at the run's scale.
func probeModules(c RunConfig, rep *Report) error {
	rec, sc := c.Rec, c.Scale
	total := sc.Warmup + sc.Measure
	root := rec.Begin("probes", 0, 0)
	defer rec.End(root)
	presets := workload.Presets(c.Seed)

	// Generation as a child span of annotation, so annotation's self
	// time excludes it.
	var annSpans []int64
	var offchip float64
	for _, w := range presets {
		var a *annotate.Annotator
		span := rec.Begin("annotate", root, 0)
		insts := make([]isa.Inst, 0, total)
		rec.Time("workload.gen", span, func(int64) {
			g := workload.MustNew(w)
			for int64(len(insts)) < total {
				in, _ := g.Next() // generators are infinite
				insts = append(insts, in)
			}
		})
		a = annotate.New(&sliceSource{insts: insts}, annotate.Config{})
		a.Warm(sc.Warmup)
		buf := make([]annotate.Inst, 4096)
		for a.AnnotateInto(buf) > 0 {
		}
		rec.End(span)
		annSpans = append(annSpans, span)
		offchip += a.Stats().MissRatePer100()
	}
	spans := rec.Spans()
	self := SelfTimes(spans)
	var annSelf time.Duration
	for _, id := range annSpans {
		annSelf += self[id]
	}
	perInst := func(d time.Duration, n int64) float64 { return float64(d) / float64(n) }
	all := int64(len(presets)) * total
	rep.layer("workload.gen_ns_per_inst", perInst(sumDur(spans, "workload.gen"), all), "ns")
	rep.layer("annotate.ns_per_inst", perInst(annSelf, all), "ns")
	rep.layer("annotate.offchip_per_100", offchip/float64(len(presets)), "count")

	// Capture through an empty cache, then replay and the engines over
	// the captured traces.
	cache := atrace.NewCache()
	traces := make([]atrace.Trace, len(presets))
	var capT, replayT, engT, gangT, cy200, cy1000 time.Duration
	var cpi float64
	figure4 := make([]core.Config, 0, 25)
	for _, size := range experiments.Figure4Sizes {
		for _, ic := range experiments.Figure4Configs {
			cfg := core.Default().WithWindow(size).WithIssue(ic)
			cfg.MaxInstructions = sc.Measure
			figure4 = append(figure4, cfg)
		}
	}
	for i, w := range presets {
		capT += rec.Time("atrace.capture", root, func(int64) { traces[i] = getTrace(cache, w, sc) })
		tr := traces[i]
		replayT += rec.Time("atrace.replay", root, func(int64) {
			src := tr.Source()
			var in annotate.Inst
			for src.NextInto(&in) {
			}
		})
		engT += rec.Time("core.engine", root, func(int64) {
			cfg := core.Default()
			cfg.MaxInstructions = sc.Measure
			core.NewEngine(tr.Source(), cfg).Run()
		})
		gangT += rec.Time("core.gang", root, func(int64) { core.RunGang(tr.Source(), figure4) })
		cy200 += rec.Time("cyclesim.200", root, func(int64) {
			cfg := cyclesim.Default(200)
			cfg.MaxInstructions = sc.Measure
			res := cyclesim.New(tr.Source(), cfg).Run()
			cpi += res.CPI()
		})
		cy1000 += rec.Time("cyclesim.1000", root, func(int64) {
			cfg := cyclesim.Default(1000)
			cfg.MaxInstructions = sc.Measure
			cyclesim.New(tr.Source(), cfg).Run()
		})
	}
	measured := int64(len(presets)) * sc.Measure
	rep.layer("atrace.capture_ns_per_inst", perInst(capT, all), "ns")
	rep.layer("atrace.replay_ns_per_inst", perInst(replayT, measured), "ns")
	rep.layer("core.engine_ns_per_inst", perInst(engT, measured), "ns")
	rep.layer("core.gang_ns_per_cfg_inst", perInst(gangT, measured*int64(len(figure4))), "ns")
	rep.layer("cyclesim.ns_per_inst_200", perInst(cy200, measured), "ns")
	rep.layer("cyclesim.ns_per_inst_1000", perInst(cy1000, measured), "ns")
	rep.layer("cyclesim.cpi", cpi/float64(len(presets)), "count")

	// SMT: ext-smt's four-thread point, and every scheduled policy on it.
	threads := make([]workload.Config, 4)
	for t := range threads {
		threads[t] = presets[0].WithSeed(c.Seed + int64(t)*101)
	}
	smtCfg := smt.Config{Threads: threads, Processor: core.Default(), Warmup: sc.Warmup / 4, Measure: sc.Measure / 4}
	smtT := rec.Time("smt.run", root, func(int64) { smt.Run(smtCfg) })
	schedT := rec.Time("smt.sched", root, func(int64) {
		smt.RunScheduledPolicies(smt.SchedConfig{Config: smtCfg}, smt.PolicyNames())
	})
	rep.layer("smt.run_ms", float64(smtT)/1e6, "ms")
	rep.layer("smt.sched_ms", float64(schedT)/1e6, "ms")

	// Spill: one quick-scale trace written as a columnar file and opened
	// again.
	q := scales["quick"]
	if sc.Name == "tiny" {
		q = sc // the tests' scale keeps the probe tiny too
	}
	st, ok := getTrace(atrace.NewCache(), presets[0], q).(*atrace.Stream)
	if !ok {
		return fmt.Errorf("spill probe: the cache returned a segmented trace")
	}
	path := filepath.Join(c.Work, "spill.acol")
	var werr, oerr error
	wT := rec.Time("atrace.spill_write", root, func(int64) { werr = atrace.WriteColumnarFile(path, st) })
	oT := rec.Time("atrace.spill_open", root, func(int64) { _, oerr = atrace.OpenSpill(path) })
	if werr != nil || oerr != nil {
		return fmt.Errorf("spill probe: write %v, open %v", werr, oerr)
	}
	rep.layer("atrace.spill_write_ms", float64(wT)/1e6, "ms")
	rep.layer("atrace.spill_open_ms", float64(oT)/1e6, "ms")
	return nil
}

// getTrace obtains w's default-annotation trace from cache the way the
// experiments do.
func getTrace(cache *atrace.Cache, w workload.Config, sc Scale) atrace.Trace {
	akey, fresh, _ := atrace.ConfigKey(annotate.Config{})
	key := atrace.Key{Workload: w, Annot: akey, Warmup: sc.Warmup, Measure: sc.Measure}
	return cache.GetTrace(key, atrace.BuildSpec{
		Warmup: sc.Warmup, Measure: sc.Measure,
		NewAnnotator: func() *annotate.Annotator { return annotate.New(workload.MustNew(w), fresh()) },
	})
}

// sumDur totals the durations of the spans called name.
func sumDur(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur()
		}
	}
	return d
}
