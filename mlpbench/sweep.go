package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// gangExhibits dispatch their sweep points through RunMLPsimBatch;
// soloExhibits are the rest of experiments.All().
var (
	gangExhibits = []string{"table5", "figure4", "figure5", "figure6", "figure8", "figure9",
		"figure10", "ext-mshr", "ext-storemlp", "ext-storesets"}
	soloExhibits = []string{"table1", "figure2", "table3", "table4", "figure7", "table6",
		"figure11", "ext-prefetch", "ext-smt", "ext-smtsched", "ext-bandwidth", "stability", "compare"}
)

// sweepRounds is how many rounds a sweep run makes. Each builds a fresh
// Setup and runs its cold pass (setup_s and rss_peak_mb are medians over
// the rounds), then runs warm passes over it for its share of -seconds
// (wall_s is the median over every round's warm passes). Spreading the
// cold passes across the run lets their median, like wall_s's, average
// over the host's slow changes of speed.
const sweepRounds = 5

// minWarmPasses is how many warm passes a round makes at least, whatever
// -seconds says, so the traced run has traced and untraced passes.
const minWarmPasses = 2

// newSetup is the setup a one-shot CLI run would build: experiments.Quick
// (fresh in-heap trace cache, GOMAXPROCS workers, auto gang size) at the
// given scale.
func newSetup(seed int64, sc Scale) experiments.Setup {
	s := experiments.Quick(seed)
	s.Warmup, s.Measure = sc.Warmup, sc.Measure
	s.Workloads = workload.Presets(seed)
	s.GangStats = &experiments.GangStats{}
	return s
}

// pickRunners returns the named runners in registry (paper) order, or
// with exclude set, every runner not named.
func pickRunners(ids []string, exclude bool) []experiments.Runner {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []experiments.Runner
	for _, r := range experiments.All() {
		if want[r.ID] != exclude {
			out = append(out, r)
		}
	}
	return out
}

// passResult is one pass over a workload's exhibits.
type passResult struct {
	wall    float64 // seconds, Runner.Run calls only
	outputs map[string]fmt.Stringer
}

// runPass runs each runner once against s. Only the Run calls are timed;
// with rec set each gets an "exhibit.<id>" span under a "pass" span.
func runPass(s experiments.Setup, runners []experiments.Runner, rec *Recorder) passResult {
	pr := passResult{outputs: map[string]fmt.Stringer{}}
	pass := rec.Begin("pass", 0, 0)
	for _, r := range runners {
		id := rec.Begin("exhibit."+r.ID, pass, 0)
		t := time.Now()
		out := r.Run(s)
		d := since(t)
		rec.End(id)
		pr.wall += d
		pr.outputs[r.ID] = out
	}
	rec.End(pass)
	return pr
}

// checker compares exhibit outputs against the first pass of the run
// and, where recorded, against the committed digests.
type checker struct {
	rep     *Report
	digests digestTable
	sc      Scale
	seed    int64
	first   map[string]string // exhibit -> JSON digest of the run's first pass
}

// check verifies every output of one pass. Each exhibit is one attempted
// operation; a mismatch is one failed operation.
func (c *checker) check(pass string, pr passResult) {
	for id, out := range pr.outputs {
		c.rep.Attempted++
		d, err := jsonDigest(out)
		if err != nil {
			c.rep.fail("%s %s: %v", pass, id, err)
			continue
		}
		if want, ok := c.digests.lookup(c.sc, c.seed, id); ok && d != want {
			c.rep.fail("%s %s: JSON digest %s, recorded %s", pass, id, d[:12], want[:12])
			continue
		}
		if prev, ok := c.first[id]; !ok {
			c.first[id] = d
		} else if d != prev {
			c.rep.fail("%s %s: JSON differs from the run's first pass", pass, id)
		}
	}
}

// runSweep measures one in-process sweep workload in sweepRounds
// rounds. On the traced run every other warm pass records spans, which
// gives trace.overhead_frac, and the layer probes follow, using the last
// round's Setup.
func runSweep(c RunConfig, ids []string) (*Report, error) {
	rep := newReport()
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	chk := &checker{rep: rep, digests: digests, sc: c.Scale, seed: c.Seed, first: map[string]string{}}
	runners := pickRunners(ids, false)

	var setupTimes, peaks, walls, tracedWalls []float64
	var s experiments.Setup
	var last passResult
	passes := 0
	for round := 1; round <= sweepRounds; round++ {
		s = experiments.Setup{}
		// The previous Setup's trace cache is garbage now: return it to
		// the OS so each cold pass starts from the same resident set.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := time.Now()
		s = newSetup(c.Seed, c.Scale)
		pr := runPass(s, runners, nil)
		setupTimes = append(setupTimes, since(t))
		peaks = append(peaks, peakRSSMB(0))
		chk.check(fmt.Sprintf("round %d cold pass", round), pr)

		start := time.Now()
		for i := 0; i < minWarmPasses || since(start) < c.Seconds/sweepRounds; i++ {
			var rec *Recorder
			if passes++; passes%2 == 0 {
				rec = c.Rec // traced run: every other pass records spans
			}
			pr := runPass(s, runners, rec)
			if rec != nil {
				tracedWalls = append(tracedWalls, pr.wall)
			} else {
				walls = append(walls, pr.wall)
			}
			chk.check(fmt.Sprintf("round %d warm pass %d", round, i+1), pr)
			last = pr
		}
	}
	if c.Rec == nil {
		walls = append(walls, tracedWalls...) // untraced: every pass counts
	}
	logf(c.Log, "%d rounds: cold pass median %.3fs; %d warm passes, median %.3fs",
		sweepRounds, Median(setupTimes), passes, Median(walls))

	rep.e2e("setup_s", Median(setupTimes), "s")
	rep.e2e("wall_s", Median(walls), "s")
	rep.e2e("rss_peak_mb", Median(peaks), "MB")
	rep.notef("setup_s and rss_peak_mb are medians over %d fresh Setups, each timed through its cold pass", sweepRounds)
	rep.notef("wall_s is the median of %d warm passes", len(walls))
	if t, ok := HighestTail(walls); ok {
		rep.notef("warm pass tail in seconds (not gated): %s", t)
	}
	rep.notef("digest check: %s", digestCoverage(digests, c.Scale, c.Seed))
	noteSimulatedErrors(rep, last.outputs)

	if c.Rec != nil {
		rep.layer("trace.overhead_frac", Median(tracedWalls)/Median(walls)-1, "ratio")
		if err := sweepLayers(c, rep, chk, s, ids, last); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// digestCoverage says whether this run's outputs were checked against
// recorded digests.
func digestCoverage(t digestTable, sc Scale, seed int64) string {
	if _, ok := t.lookup(sc, seed, "table1"); ok {
		return fmt.Sprintf("every output compared with the digest recorded for seed %d at %s scale", seed, sc.Name)
	}
	return fmt.Sprintf("no digests recorded for seed %d at %s scale; outputs checked for pass-to-pass identity only", seed, sc.Name)
}

// noteSimulatedErrors reports the paper's validation numbers, which are
// simulated results, when the pass ran the exhibits they come from:
// MLPsim's largest error against the cycle simulator in Table 3, and the
// median error of the compare rows against the paper's published values.
func noteSimulatedErrors(rep *Report, outputs map[string]fmt.Stringer) {
	if t, ok := outputs["table3"].(experiments.Table3); ok {
		worst := 0.0
		for _, l := range []int{200, 500, 1000} {
			worst = math.Max(worst, t.MaxRelError(l))
		}
		rep.notef("mlp_err_vs_cycle %.6g ratio (simulated: max |MLPsim-cyclesim|/cyclesim over table3)", worst)
	}
	if c, ok := outputs["compare"].(experiments.Compare); ok {
		var errs []float64
		for _, r := range c.Rows {
			if r.Paper != 0 {
				errs = append(errs, math.Abs(r.Measured-r.Paper)/math.Abs(r.Paper))
			}
		}
		rep.notef("mlp_err_vs_paper %.6g ratio (simulated: median relative error of %d compare rows)", Median(errs), len(errs))
	}
}
