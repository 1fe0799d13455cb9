package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mlpsim/internal/experiments"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestHighestTail(t *testing.T) {
	cases := []struct {
		name   string
		in     []float64
		ok     bool
		label  string
		value  float64
		beyond int
	}{
		{"1000 samples reach p99 with exactly ten beyond", seq(1000), true, "p99", 990, 10},
		{"999 samples fall back to p95", seq(999), true, "p95", 950, 49},
		{"10000 samples reach p99.9", seq(10000), true, "p99.9", 9990, 10},
		{"21 samples support only the median", seq(21), true, "p50", 11, 10},
		{"20 samples support the median", seq(20), true, "p50", 10, 10},
		{"19 samples support nothing", seq(19), false, "", 0, 0},
		{"order does not matter", []float64{5, 3, 1, 4, 2, 9, 8, 7, 6, 10, 11, 20, 19, 18, 17, 16, 15, 14, 13, 12, 21}, true, "p50", 11, 10},
	}
	for _, c := range cases {
		got, ok := HighestTail(c.in)
		if ok != c.ok {
			t.Fatalf("%s: ok = %v, want %v", c.name, ok, c.ok)
		}
		if !ok {
			continue
		}
		if got.Label != c.label || got.Value != c.value || got.Beyond != c.beyond || got.N != len(c.in) {
			t.Errorf("%s: got %+v, want %s=%g with %d beyond of %d", c.name, got, c.label, c.value, c.beyond, len(c.in))
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %g, want 2.5", m)
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("Median odd = %g, want 3", m)
	}
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.0, 4.4, 1.1}, [3]float64{1.1, 3.1, 7.25}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := Quartiles(c.in)
		if !ok {
			t.Fatalf("Quartiles(%v) not ok", c.in)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("Quartiles of one sample should not be ok")
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: a parallel fan-out
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 45},
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("SelfTimes = %v, want %v", self, want)
	}
}

func TestRecorderNestingAndRequestIDs(t *testing.T) {
	rec := NewRecorder()
	root := rec.Begin("request", 0, 7)
	child := rec.Begin("http", root, 7)
	time.Sleep(2 * time.Millisecond)
	rec.End(child)
	open := rec.Begin("never-closed", root, 7)
	rec.End(root)
	_ = open

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2 (open spans are not reported)", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[0].Req != 7 || spans[1].Req != 7 {
		t.Errorf("spans %+v: want http under request, both in request 7", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End || spans[1].Dur() < 2*time.Millisecond {
		t.Errorf("child %+v does not nest inside parent %+v", spans[1], spans[0])
	}
	self := SelfTimes(spans)
	if got := self[spans[0].ID]; got != spans[0].Dur()-spans[1].Dur() {
		t.Errorf("parent self time %v, want %v", got, spans[0].Dur()-spans[1].Dur())
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 2 {
		t.Errorf("wrote %d lines, want 2", n)
	}

	var nilRec *Recorder
	if id := nilRec.Begin("x", 0, 0); id != 0 {
		t.Errorf("nil recorder Begin = %d, want 0", id)
	}
	nilRec.End(0)
}

func TestWrongDigestCountsAsFailure(t *testing.T) {
	sc := scales["tiny"]
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := digests.lookup(sc, 1, "table5")
	if !ok {
		t.Fatal("no tiny-scale digest recorded for table5 at seed 1")
	}
	pass := runPass(newSetup(1, sc), pickRunners([]string{"table5"}, false), nil)

	rep := newReport()
	(&checker{rep: rep, digests: digests, sc: sc, seed: 1, first: map[string]string{}}).check("pass", pass)
	if rep.Attempted != 1 || rep.Failed != 0 {
		t.Fatalf("recorded digest: attempted %d failed %d (%v), want 1 and 0", rep.Attempted, rep.Failed, rep.Failures)
	}

	wrong := digestTable{"tiny": {"1": {"table5": strings.Repeat("0", len(want))}}}
	rep = newReport()
	(&checker{rep: rep, digests: wrong, sc: sc, seed: 1, first: map[string]string{}}).check("pass", pass)
	if rep.Failed != 1 {
		t.Fatalf("wrong digest: failed %d, want 1", rep.Failed)
	}
}

func TestTamperedDaemonBodyCountsAsFailure(t *testing.T) {
	c := RunConfig{Seed: 1, Scale: scales["tiny"]}
	out := experiments.Find("table5").Run(newSetup(1, c.Scale))
	rd, err := render(out)
	if err != nil {
		t.Fatal(err)
	}
	list := []response{
		{"table5", 1, "csv", sha(rd.CSV)},
		{"table5", 1, "text", sha(rd.Text)},
		{"table5", 1, "json", sha(append(rd.JSON, ' '))},
	}
	rep := newReport()
	verifyResponses(c, nil, rep, list, digestTable{})
	if rep.Failed != 1 {
		t.Fatalf("failed %d (%v), want exactly the tampered JSON body", rep.Failed, rep.Failures)
	}
}

func TestScheduleOffersSameLoadForEverySeed(t *testing.T) {
	steps := []Step{{Rate: 100, Duration: 2 * time.Second}, {Rate: 50, Duration: time.Second}}
	mix := Mix{Exhibits: []string{"a", "b", "c"}, HotSeeds: []int64{1, 2},
		Formats: []string{"json", "csv"}, FormatWeights: []float64{3, 1}}
	count := func(seed int64) map[string]int {
		m := map[string]int{}
		for si, reqs := range Schedule(rand.New(rand.NewSource(seed)), steps, mix) {
			if len(reqs) != int(steps[si].Rate*steps[si].Duration.Seconds()) {
				t.Fatalf("step %d: %d requests, want %g", si, len(reqs), steps[si].Rate*steps[si].Duration.Seconds())
			}
			for i, r := range reqs {
				if r.Due < 0 || r.Due >= steps[si].Duration || (i > 0 && r.Due < reqs[i-1].Due) {
					t.Fatalf("step %d request %d due at %v: out of order or outside the step", si, i, r.Due)
				}
				m[r.Exhibit+"/"+r.Format]++
			}
		}
		return m
	}
	a, b := count(1), count(2)
	var exA, exB []int
	for _, k := range []string{"a", "b", "c"} {
		exA = append(exA, a[k+"/json"]+a[k+"/csv"])
		exB = append(exB, b[k+"/json"]+b[k+"/csv"])
	}
	if !reflect.DeepEqual(exA, exB) || !(exA[0] > exA[1] && exA[1] > exA[2]) {
		t.Errorf("exhibit counts %v and %v: want equal across seeds and falling with rank", exA, exB)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if cw := findWorkload(w.Name); cw == nil || cw.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %q (%q) does not match the code's", w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, more than 200", w.Name, len(w.Why))
		}
	}
	var e2e []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end %v, code reports %v", e2e, endToEndNames)
	}
	names := perLayerNames()
	if len(bf.PerLayer) != len(names) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(names))
	}
	for i, m := range bf.PerLayer {
		if m.Name != names[i] {
			t.Errorf("per_layer %d: %q, code reports %q", i, m.Name, names[i])
		}
		if i < len(layerDefs) && (m.Unit != layerDefs[i].Unit || m.Better != layerDefs[i].Better) {
			t.Errorf("per_layer %s: %s/%s, code says %s/%s", m.Name, m.Unit, m.Better, layerDefs[i].Unit, layerDefs[i].Better)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at
// the tiny scale against a freshly built daemon binary, and checks that
// each prints exactly its promised metrics with every output verified
// against the recorded tiny-scale digests.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "mlpsim/cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // run() writes under .bench_build/
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			cfg := RunConfig{Seed: 1, Seconds: 1, Scale: scales["tiny"], Bin: bin, Log: &syncWriter{w: &stderr}}
			if trace == "1" {
				cfg.Rec = NewRecorder()
			}
			if err := execute(w, cfg, &stdout); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, trace, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), "compared with the digest recorded for seed 1 at tiny scale") &&
				w.Name != "daemon-open" {
				t.Errorf("%s trace=%s: outputs were not checked against recorded digests", w.Name, trace)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, stdout.String())
			}
			want := w.Metrics
			if trace == "1" {
				want = perLayerNames()
			}
			got := sortedKeys(res.Metrics)
			want = append([]string(nil), want...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%s: metrics %v, want %v", w.Name, trace, got, want)
			}
		}
	}
}
