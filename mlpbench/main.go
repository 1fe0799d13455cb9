// Command mlpbench is MLPsim's end-to-end benchmark.
//
// It runs one workload through the system's public entry points and
// prints every metric with its unit, then, as its last line, one JSON
// object {"correct","attempted","failed","metrics"}:
//
//	mlpbench -workload gang-sweep -seed 1 -seconds 20 -trace 0
//
// Workloads (see workloads below for why each exists):
//
//	gang-sweep   the 10 exhibits that dispatch through RunMLPsimBatch, in process
//	solo-sweep   the other 13 exhibits, in process
//	daemon-open  the cmd/experiments -serve binary, driven open-loop over loopback HTTP
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a separate traced run, which
// records spans around the calls into each module's public functions.
// With -steady N it runs every workload N times, each in a fresh
// process with its own seed, and prints each end-to-end metric's
// median, quartiles and spread against the bound in BENCHMARK.json.
//
// The benchmark is meant to be started through run.sh, which builds
// this command and the daemon binary under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything the benchmark builds or writes, relative to
// the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report collects one run's numbers. EndToEnd and PerLayer become the
// result line's metrics (by -trace); Notes are printed only.
type Report struct {
	Attempted int
	Failed    int
	// Failures describes each failed check, for the log.
	Failures []string
	EndToEnd map[string]Metric
	PerLayer map[string]Metric
	// Notes are report-only lines: metric details (which percentile,
	// how many samples) and metrics that are not gated.
	Notes []string
}

func newReport() *Report {
	return &Report{EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}}
}

func (r *Report) e2e(name string, v float64, unit string) {
	r.EndToEnd[name] = Metric{Value: v, Unit: unit}
}

func (r *Report) layer(name string, v float64, unit string) {
	r.PerLayer[name] = Metric{Value: v, Unit: unit}
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and remembers why.
func (r *Report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// RunConfig is what one workload run is told.
type RunConfig struct {
	Seed    int64
	Seconds float64
	// Rec is non-nil on the traced run.
	Rec *Recorder
	// Scale fixes the instruction counts: benchScale, or the tiny scale
	// in tests.
	Scale Scale
	// Bin is the cmd/experiments binary the daemon workload starts.
	Bin string
	// Work is a private scratch directory for this run.
	Work string
	// Log receives progress lines.
	Log io.Writer
}

// Scale fixes the instruction counts of every simulation in a run.
type Scale struct {
	Name            string
	Warmup, Measure int64
}

var scales = map[string]Scale{
	"tiny":  {"tiny", 2_000, 6_000},
	"smoke": {"smoke", 20_000, 60_000},
	"quick": {"quick", 300_000, 1_000_000},
}

// benchScale is every workload's scale: at quick scale one warm
// solo-sweep pass takes about 16 s, which leaves no room for medians
// within a run. At smoke scale the engines still take nearly all of a
// warm pass (see the workloads' Why).
const benchScale = "smoke"

// Workload is one benchmark workload.
type Workload struct {
	Name string
	// Why the workload exists: which layers it loads and which it
	// bypasses.
	Why string
	// Metrics are the end-to-end metrics the workload reports.
	Metrics []string
	Run     func(RunConfig) (*Report, error)
}

var workloads = []Workload{
	{
		Name:    "gang-sweep",
		Why:     "the 10 RunMLPsimBatch exhibits in process; CPU at smoke scale: gang dispatch 91% (core.Gang.Run 82%), scalar Engine.Run 8%, cyclesim 7% (figure9), smt none",
		Metrics: endToEndNames,
		Run:     func(c RunConfig) (*Report, error) { return runSweep(c, gangExhibits) },
	},
	{
		Name:    "solo-sweep",
		Why:     "the other 13 exhibits in process; CPU at smoke scale: cyclesim 55% (table3 46%), smt 14%, annotation 9%, the rest scalar Engine.Run on trace replay; no gang dispatch",
		Metrics: endToEndNames,
		Run:     func(c RunConfig) (*Report, error) { return runSweep(c, soloExhibits) },
	},
	{
		Name:    "daemon-open",
		Why:     "the -serve binary over loopback: suite passes at fresh seeds (write path), then an open loop of cached results; goodput limit is a tail under 25 ms",
		Metrics: append(append([]string(nil), endToEndNames...), daemonNames...),
		Run:     runDaemon,
	},
}

func findWorkload(name string) *Workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: gang-sweep, solo-sweep or daemon-open")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the measured phase lasts")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	steady := fs.Int("steady", 0, "steadiness mode: run every workload in BENCHMARK.json (or -workload) N times, seeds -seed..-seed+N-1, and print each metric's spread")
	record := fs.String("record-digests", "", "run every exhibit at the recorded scales and seeds and write their JSON digests to this file")
	bin := fs.String("bin", filepath.Join(buildDir, "bin", "experiments"), "cmd/experiments binary for daemon-open")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(stderr, "mlpbench:", err)
			return 1
		}
		return 0
	}
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *wl, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "mlpbench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*wl)
	if w == nil {
		fmt.Fprintf(stderr, "mlpbench: unknown workload %q\n", *wl)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "mlpbench: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "mlpbench: -seconds %g: must be > 0\n", *seconds)
		return 2
	}
	cfg := RunConfig{Seed: *seed, Seconds: *seconds, Scale: scales[benchScale], Bin: *bin, Log: &syncWriter{w: stderr}}
	if *trace == 1 {
		cfg.Rec = NewRecorder()
	}
	if err := execute(w, cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "mlpbench: %s: %v\n", w.Name, err)
		return 1
	}
	return 0
}

// execute runs one workload in a private scratch directory, writes the
// traced run's spans, and prints the report ending with the result line.
func execute(w *Workload, cfg RunConfig, stdout io.Writer) error {
	work, err := os.MkdirTemp(mustMkdir(filepath.Join(buildDir, "run")), w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.Work = work
	rep, err := w.Run(cfg)
	if err != nil {
		return err
	}
	if cfg.Rec != nil {
		out := filepath.Join(mustMkdir(filepath.Join(buildDir, "out")), fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, cfg.Seed))
		if err := cfg.Rec.WriteFile(out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", out)
	}
	res, err := finish(w, cfg.Scale, cfg.Seed, cfg.Rec != nil, rep, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func mustMkdir(dir string) string {
	os.MkdirAll(dir, 0o755) // a failure surfaces at the first file created inside
	return dir
}

// finish prints the human-readable report and builds the result line.
// It refuses a report that lacks a metric the benchmark promises or
// carries a non-finite value.
func finish(w *Workload, sc Scale, seed int64, traced bool, rep *Report, out io.Writer) (Result, error) {
	env := environment()
	fmt.Fprintf(out, "workload %s  seed %d  scale %s (%d+%d insts)  traced=%v\n", w.Name, seed, sc.Name, sc.Warmup, sc.Measure, traced)
	fmt.Fprintf(out, "why: %s\n", w.Why)
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s source_sha256=%s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.SourceDigest)
	metrics, want := rep.EndToEnd, w.Metrics
	if traced {
		metrics, want = rep.PerLayer, perLayerNames()
	}
	for _, name := range want {
		m, ok := metrics[name]
		if !ok {
			return Result{}, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return Result{}, fmt.Errorf("metric %s = %v", name, m.Value)
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-6s %s\n", name, m.Value, m.Unit, moves(name))
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(out, "  %-32s %14.6g ratio (%d of %d operations)\n", "failed_frac", frac, rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	if rep.Attempted < 1 {
		return Result{}, fmt.Errorf("no operation was attempted")
	}
	sel := make(map[string]Metric, len(want))
	for _, name := range want {
		sel[name] = metrics[name]
	}
	return Result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: sel}, nil
}

// endToEndNames are the end-to-end metrics every workload reports, the
// ones BENCHMARK.json gates.
var endToEndNames = []string{"setup_s", "wall_s", "rss_peak_mb"}

// daemonNames are daemon-open's open-loop metrics. They are not gated:
// BENCHMARK.json leaves daemon-open out.
var daemonNames = []string{"req_p50_ms", "req_tail_ms", "goodput_rps"}

// Environment identifies the machine and code a report was made on.
type Environment struct {
	NProc, GOMAXPROCS int
	GoVersion         string
	Commit            string
	SourceDigest      string
}

func environment() Environment {
	return Environment{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// syncWriter serialises writes from the run and from the daemon's
// stderr copier.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// logf prints a progress line.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, "mlpbench: "+strings.TrimSuffix(format, "\n")+"\n", args...)
	}
}
