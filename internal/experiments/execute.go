package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/smt"
	"mlpsim/internal/stats"
	"mlpsim/internal/workload"
)

// Plan → execute → render.
//
// Every exhibit is split into a pure plan — the list of typed work
// Points it needs, built without simulating anything — and a render over
// those points' Results. One executor (Setup.execute) runs every plan:
// it gangs engine points that share an annotated stream, bounds
// parallelism, honours cancellation and, under ShardedBy, fetches
// remotely-owned points from peers (see shard.go). Because a plan is a
// pure function of (exhibit, Setup), a point is fully addressed by
// (exhibit, seed, warmup, measure, index).

// Kind names the unit of work a Point describes.
type Kind uint8

const (
	// EngineRun is one epoch-engine run of Point.Engine over the point's
	// stream; engine points sharing a stream run as gangs.
	EngineRun Kind = iota
	// CycleGang is one lock-step cycle-simulator gang of Point.Cycle over
	// the point's stream.
	CycleGang
	// StreamStats collects the annotator and prefetcher statistics of
	// the point's stream over the measurement window.
	StreamStats
	// MissDistance scans the point's stream for the distances between
	// off-chip accesses (Figure 2).
	MissDistance
	// SMTRun is one smt.Run of Point.SMT.Config.
	SMTRun
	// SMTSchedule replays Point.SMT under every fetch policy in
	// Point.Policies (smt.RunScheduledPolicies).
	SMTSchedule
)

// Point is one unit of exhibit work and all of its inputs. Workload and
// Annot name the annotated stream of the stream kinds; exactly the
// payload field of Kind is meaningful.
type Point struct {
	Kind     Kind
	Workload workload.Config
	Annot    annotate.Config
	Engine   core.Config
	Cycle    []cyclesim.Config
	SMT      smt.SchedConfig
	Policies []string
}

// Result is one Point's outcome; the fields of the point's Kind are set
// and the rest stay zero. It holds only exported plain data, so it
// round-trips exactly through encoding/json — peers send it verbatim.
type Result struct {
	// Engine is an EngineRun's result.
	Engine core.Result
	// IPrefetch and DPrefetch are the hardware prefetchers' statistics
	// of an EngineRun's or StreamStats' stream (zero when absent).
	IPrefetch, DPrefetch prefetch.Stats
	// Annot is a StreamStats' annotator statistics.
	Annot annotate.Stats
	// Cycle holds a CycleGang's results, in Point.Cycle order.
	Cycle []cyclesim.Result `json:",omitempty"`
	// MeanDistance and DistanceCDF are a MissDistance scan: the mean
	// inter-miss distance and its CDF at missDistanceProbes.
	MeanDistance float64
	DistanceCDF  []float64 `json:",omitempty"`
	// SMT is an SMTRun's result.
	SMT smt.Result
	// Sched holds an SMTSchedule's results, in Point.Policies order.
	Sched []smt.SchedResult `json:",omitempty"`
}

// missDistanceProbes are the distances at which a MissDistance scan
// samples its CDF.
var missDistanceProbes = stats.LogSpacedPoints(4096)

// run plans an exhibit, executes its points and renders the results. A
// cancelled sweep returns the exhibit's zero value: its results are
// partial, and callers that cancel discard them.
func run[T any](s Setup, plan func(Setup) ([]Point, func([]Result) T)) T {
	points, render := plan(s)
	results := s.execute(points)
	if s.Context().Err() != nil {
		var zero T
		return zero
	}
	return render(results)
}

// execute runs every point — locally, or across peers under ShardedBy —
// and returns the results in point order, bit-identical however they
// were dispatched. Every result, computed here or fetched, is folded
// into DepStats and SMTSched exactly once.
func (s Setup) execute(points []Point) []Result {
	results := make([]Result, len(points))
	if s.shard != nil {
		s.executeSharded(points, results)
	} else {
		s.executeLocal(points, indices(len(points)), results)
	}
	for i := range results {
		s.noteDepStats(results[i].Engine)
		for _, r := range results[i].Sched {
			s.noteSMTSched(r)
		}
	}
	return results
}

// indices returns 0..n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// executeLocal runs points[idxs] on this replica: engine points that
// share a stream are grouped into gangs (gangPlan), every other point is
// a task of its own, and the task list runs on the bounded worker pool.
func (s Setup) executeLocal(points []Point, idxs []int, results []Result) {
	tasks := s.gangPlan(points, idxs)
	s.forEach(len(tasks), func(t int) {
		if g := tasks[t]; len(g) > 1 {
			s.runGang(points, g, results)
		} else {
			results[g[0]] = s.runPoint(points[g[0]])
		}
	})
}

// runPoint executes one point on its own.
func (s Setup) runPoint(p Point) Result {
	var r Result
	switch p.Kind {
	case EngineRun:
		src, tr := s.open(p.Workload, p.Annot)
		cfg := p.Engine
		cfg.MaxInstructions = s.Measure
		r.Engine = core.NewEngine(src, cfg).Run()
		r.IPrefetch, r.DPrefetch = prefetchStats(tr, p.Annot)
		if s.GangStats != nil {
			s.GangStats.Solo.Add(1)
		}
	case CycleGang:
		src, _ := s.open(p.Workload, p.Annot)
		cfgs := make([]cyclesim.Config, len(p.Cycle))
		for i, cfg := range p.Cycle {
			cfg.MaxInstructions = s.Measure
			cfgs[i] = cfg
		}
		r.Cycle = cyclesim.RunGang(src, cfgs)
	case StreamStats:
		tr, ok := s.cachedStream(p.Workload, p.Annot)
		if ok {
			r.Annot = tr.Stats()
		} else {
			a := s.directAnnotator(p.Workload, p.Annot)
			a.Collect(s.Measure)
			r.Annot = a.Stats()
		}
		r.IPrefetch, r.DPrefetch = prefetchStats(tr, p.Annot)
	case MissDistance:
		src, _ := s.open(p.Workload, p.Annot)
		var rec stats.DistanceRecorder
		for n := int64(0); n < s.Measure; n++ {
			in, ok := src.Next()
			if !ok {
				break
			}
			if in.OffChip() {
				rec.Observe(in.Index)
			}
		}
		r.MeanDistance = rec.MeanDistance()
		r.DistanceCDF = rec.CDFAt(missDistanceProbes)
	case SMTRun:
		r.SMT = smt.Run(p.SMT.Config)
	case SMTSchedule:
		r.Sched = smt.RunScheduledPolicies(p.SMT, p.Policies)
	}
	return r
}

// open yields the instruction stream for one run: a zero-allocation
// replay of the shared cached trace when possible (also returned), or
// else a fresh annotator and a nil trace.
func (s Setup) open(w workload.Config, acfg annotate.Config) (core.AnnotatedSource, atrace.Trace) {
	if tr, ok := s.cachedStream(w, acfg); ok {
		return tr.Source(), tr
	}
	return s.directAnnotator(w, acfg), nil
}

// prefetchStats returns the instruction- and data-prefetcher statistics
// of a stream. A cached trace carries them in its metadata (the
// prefetchers ran once, inside the annotation pass that built it);
// otherwise — untracked prefetcher types, already-trained instances, or
// no cache — the config's own instances were trained by the direct run
// and carry them. The two arms are mutually exclusive by construction: a
// trained instance makes atrace.ConfigKey refuse the key, which is also
// what forces the run down the direct path. Absent prefetchers read
// zero.
func prefetchStats(tr atrace.Trace, acfg annotate.Config) (ipf, dpf prefetch.Stats) {
	if tr != nil {
		ipf, _ = tr.IPrefetchStats()
		dpf, _ = tr.DPrefetchStats()
		return ipf, dpf
	}
	if p := acfg.IPrefetch; p != nil {
		ipf = p.Stats()
	}
	if p := acfg.DPrefetch; p != nil {
		dpf = p.Stats()
	}
	return ipf, dpf
}
