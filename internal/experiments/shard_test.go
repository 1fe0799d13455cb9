package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

// peerRouter shards points across a fake two-replica fleet: indices that
// mine rejects belong to "peer", which answers through RunExhibitShard
// on its own Setup and sends the results through encoding/json — the
// real peer protocol minus HTTP.
type peerRouter struct {
	exhibit string
	peer    Setup
	mine    func(index int) bool
	fail    bool
	short   bool

	mu      sync.Mutex
	fetches int
	fetched map[int]bool
}

func (r *peerRouter) Owner(index int) string {
	if r.mine(index) {
		return ""
	}
	return "peer"
}

func (r *peerRouter) Fetch(owner string, planLen int, indices []int) ([]Result, error) {
	r.mu.Lock()
	r.fetches++
	if r.fetched == nil {
		r.fetched = make(map[int]bool)
	}
	for _, i := range indices {
		r.fetched[i] = true
	}
	r.mu.Unlock()
	if r.fail {
		return nil, fmt.Errorf("peer down")
	}
	rs, n, err := RunExhibitShard(r.peer, r.exhibit, indices)
	if err != nil {
		return nil, err
	}
	if n != planLen {
		return nil, fmt.Errorf("peer planned %d points, coordinator %d", n, planLen)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	if r.short && len(out) > 0 {
		out = out[:len(out)-1]
	}
	return out, nil
}

// TestShardedExhibitMatchesSolo is the heart of the peer protocol: an
// exhibit whose odd-indexed points are computed by a separate replica —
// which plans the exhibit itself and executes only the requested
// indices — renders byte-identical to the solo run.
func TestShardedExhibitMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	solo := tiny(11, workload.Database(11))
	want := RunFigure4(solo).String()

	r := &peerRouter{
		exhibit: "figure4",
		peer:    tiny(11, workload.Database(11)),
		mine:    func(index int) bool { return index%2 == 0 },
	}
	got := RunFigure4(tiny(11, workload.Database(11)).ShardedBy(r)).String()
	if got != want {
		t.Errorf("sharded figure4 differs from solo:\n--- solo ---\n%s\n--- sharded ---\n%s", want, got)
	}
	if r.fetches == 0 || len(r.fetched) == 0 {
		t.Fatalf("router fetched %d shards / %d points; the sweep never offloaded", r.fetches, len(r.fetched))
	}
}

// TestShardedFleetOwnsEverything drives the other bound: the
// coordinator owns zero points, every result arrives over Fetch.
func TestShardedFleetOwnsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	solo := tiny(12, workload.Web(12))
	want := RunTable5(solo).String()
	r := &peerRouter{
		exhibit: "table5",
		peer:    tiny(12, workload.Web(12)),
		mine:    func(index int) bool { return false },
	}
	got := RunTable5(tiny(12, workload.Web(12)).ShardedBy(r)).String()
	if got != want {
		t.Errorf("fully-offloaded table5 differs from solo:\n%s\nvs\n%s", want, got)
	}
}

// TestShardFallbackOnPeerFailure: a dead peer (error) and a lying peer
// (short reply) both degrade to local execution with identical output.
func TestShardFallbackOnPeerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	solo := tiny(13, workload.Database(13))
	want := RunTable5(solo).String()
	for _, mode := range []string{"fail", "short"} {
		r := &peerRouter{
			exhibit: "table5",
			peer:    tiny(13, workload.Database(13)),
			mine:    func(index int) bool { return index%2 == 0 },
			fail:    mode == "fail",
			short:   mode == "short",
		}
		got := RunTable5(tiny(13, workload.Database(13)).ShardedBy(r)).String()
		if got != want {
			t.Errorf("%s-mode fallback differs from solo:\n%s\nvs\n%s", mode, want, got)
		}
		if r.fetches == 0 {
			t.Errorf("%s mode: fetch never attempted", mode)
		}
	}
}

// remoteSetup is the scale of the all-exhibit round trip: the exhibit
// digests' tiny scale, one workload, two workers.
func remoteSetup(seed int64) Setup {
	s := Quick(seed)
	s.Warmup = 2_000
	s.Measure = 6_000
	s.Workloads = s.Workloads[:1]
	s.Parallelism = 2
	return s
}

// TestShardAllExhibitsRemote runs every exhibit through a coordinator
// that owns none of its points: each point not carrying an OnEpoch
// callback must be fetched from the peer (through encoding/json), and
// every exhibit must render byte-identical to a solo run — Results
// round-trip exactly and peers address points by plan index alone.
func TestShardAllExhibitsRemote(t *testing.T) {
	for _, rn := range All() {
		want := rn.Run(remoteSetup(21)).String()
		r := &peerRouter{
			exhibit: rn.ID,
			peer:    remoteSetup(21),
			mine:    func(int) bool { return false },
		}
		if got := rn.Run(remoteSetup(21).ShardedBy(r)).String(); got != want {
			t.Errorf("%s: remote run differs from solo:\n--- solo ---\n%s\n--- remote ---\n%s", rn.ID, want, got)
		}
		points, _ := rn.plan(remoteSetup(21))
		for i, p := range points {
			if remote := p.Engine.OnEpoch == nil; remote != r.fetched[i] {
				t.Errorf("%s point %d (kind %d): fetched=%v, want %v", rn.ID, i, p.Kind, r.fetched[i], remote)
			}
		}
	}
}

// TestShardPlansArePure: planning does no simulation — no trace-cache
// lookup, no annotation pass, so a peer asked for one point of figure9
// does not first run its characterization — and is deterministic in
// the count and kinds of its points.
func TestShardPlansArePure(t *testing.T) {
	s := Quick(1)
	s.Cache = atrace.NewCache()
	for _, rn := range All() {
		a, _ := rn.plan(s)
		b, _ := rn.plan(s)
		if len(a) == 0 || len(a) != len(b) {
			t.Errorf("%s: planned %d then %d points", rn.ID, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i].Kind != b[i].Kind {
				t.Errorf("%s point %d: kind %d then %d", rn.ID, i, a[i].Kind, b[i].Kind)
			}
		}
	}
	if st := s.Cache.Stats(); st.Hits+st.Misses+st.Builds != 0 {
		t.Errorf("planning touched the trace cache: %+v", st)
	}
}

// recordingRouter owns nothing and remembers which points it was asked
// about; Fetch answers from a closed-over oracle.
type recordingRouter struct {
	mu     sync.Mutex
	asked  map[int]bool
	oracle map[int]Result
}

func (r *recordingRouter) Owner(index int) string {
	r.mu.Lock()
	r.asked[index] = true
	r.mu.Unlock()
	return "peer"
}

func (r *recordingRouter) Fetch(owner string, planLen int, indices []int) ([]Result, error) {
	out := make([]Result, len(indices))
	for k, i := range indices {
		out[k] = r.oracle[i]
	}
	return out, nil
}

// TestShardOnEpochNeverOffloads: a point carrying an epoch callback is
// never even offered to the router — funcs do not travel, and the
// caller's collector must see the epochs locally.
func TestShardOnEpochNeverOffloads(t *testing.T) {
	s := tiny(14, workload.Database(14))
	s.Measure = 200_000
	epochs := 0
	points := []Point{
		enginePoint(s.Workloads[0], core.Default(), annotate.Config{}),
		enginePoint(s.Workloads[0], core.Default(), annotate.Config{}),
	}
	points[1].Engine.OnEpoch = func(core.Epoch) { epochs++ }
	s.Parallelism = 1 // the callback increments without a lock

	r := &recordingRouter{asked: make(map[int]bool), oracle: map[int]Result{
		0: {Engine: core.Result{Instructions: 123}},
	}}
	rs := s.ShardedBy(r).execute(points)
	if r.asked[1] {
		t.Error("router was offered a point with an OnEpoch callback")
	}
	if !r.asked[0] {
		t.Error("router never saw the plain point")
	}
	if rs[0].Engine.Instructions != 123 {
		t.Errorf("offloaded point got %+v, want the fetched oracle result", rs[0])
	}
	if epochs == 0 {
		t.Error("local OnEpoch callback never fired")
	}
	if rs[1].Engine.Instructions != 200_000 {
		t.Errorf("local point ran %d instructions, want 200000", rs[1].Engine.Instructions)
	}
}

// TestShardMisshapenResultFallsBack: a fetched result that does not
// fit its point (a peer running a diverged plan) is run locally instead
// of reaching the render.
func TestShardMisshapenResultFallsBack(t *testing.T) {
	s := remoteSetup(22)
	want := RunTable1(s).String()
	r := &recordingRouter{asked: make(map[int]bool), oracle: map[int]Result{}}
	if got := RunTable1(remoteSetup(22).ShardedBy(r)).String(); got != want {
		t.Errorf("table1 with empty fetched results differs from solo:\n%s\nvs\n%s", want, got)
	}
}

// TestRunExhibitShardErrors pins the executor's failure envelope — each
// of these makes the coordinator fall back to local execution.
func TestRunExhibitShardErrors(t *testing.T) {
	s := tiny(15, workload.Database(15))
	s.Measure = 200_000
	if _, _, err := RunExhibitShard(s, "no-such-exhibit", []int{0}); err == nil ||
		!strings.Contains(err.Error(), "unknown exhibit") {
		t.Errorf("unknown exhibit: err = %v", err)
	}
	for _, idxs := range [][]int{{0, 10_000}, {-1}} {
		if _, n, err := RunExhibitShard(s, "table5", idxs); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Errorf("indices %v: err = %v", idxs, err)
		} else if n != 2 {
			t.Errorf("plan length %d alongside the range error, want 2", n)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	if _, _, err := RunExhibitShard(s, "table5", []int{0}); err != context.Canceled {
		t.Errorf("cancelled context: err = %v", err)
	}
}

// TestRunExhibitShardMatchesBatch: the executor's answers for a subset
// of a plan — here a cycle-simulator characterization and an engine
// point of figure9, in reverse order — equal the corresponding slots of
// the whole plan executed locally, and the reported plan length
// matches.
func TestRunExhibitShardMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	s := tiny(16, workload.Database(16))
	points, _ := planFigure9(s)
	want := s.execute(points)
	got, n, err := RunExhibitShard(tiny(16, workload.Database(16)), "figure9", []int{5, 0})
	if err != nil || n != len(points) {
		t.Fatalf("shard: err=%v plan length %d, want %d", err, n, len(points))
	}
	if !reflect.DeepEqual(got, []Result{want[5], want[0]}) {
		t.Errorf("shard results differ from the local plan's:\nshard: %+v\nlocal: %+v", got, []Result{want[5], want[0]})
	}
}
