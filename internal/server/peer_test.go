package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlpsim/internal/core"
	"mlpsim/internal/experiments"
)

// fleetSetup returns one replica's Setup: tiny runs, private trace
// cache — replicas share nothing but the wire protocol.
func fleetSetup() experiments.Setup {
	setup := experiments.Quick(1)
	setup.Warmup = 20_000
	setup.Measure = 60_000
	setup.Parallelism = 2
	return setup
}

// fleet is a set of in-process replicas plus an observer that owns no
// points.
type fleet struct {
	servers []*Server
	https   []*httptest.Server
	obs     *Server
	obsHTTP *httptest.Server
}

// newFleet starts n replicas (ids r0..r{n-1}) and one coordinator-only
// observer ("obs", not on the ring). Peer URLs must exist before the
// Servers do, so each httptest.Server fronts a swappable handler that
// is installed once the fleet list is known.
func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	handlers := make([]atomic.Value, n+1) // [n] = observer
	for i := 0; i <= n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		if i < n {
			f.https = append(f.https, ts)
		} else {
			f.obsHTTP = ts
		}
	}
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{ID: fmt.Sprintf("r%d", i), URL: f.https[i].URL}
	}
	for i := 0; i < n; i++ {
		s := New(Options{
			Setup: fleetSetup(), RequestTimeout: time.Minute,
			PeerID: peers[i].ID, Peers: peers,
		})
		f.servers = append(f.servers, s)
		handlers[i].Store(s.Handler())
	}
	f.obs = New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "obs", Peers: peers,
	})
	handlers[n].Store(f.obs.Handler())
	return f
}

// TestFleetByteIdenticalToSolo is the peer fabric's acceptance test:
// every replica of a 3-replica fleet — and an observer that owns none of
// the points — answers byte-identical to a solo daemon in all three
// formats, for engine gangs (figure4, ext-storesets), cycle-simulator
// gangs (table3) and stream statistics (compare); the observer fetches
// points for each.
func TestFleetByteIdenticalToSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit sweeps over HTTP")
	}
	_, solo := testServer(t)
	f := newFleet(t, 3)

	for _, exhibit := range []string{"figure4", "ext-storesets", "table3", "compare"} {
		before := f.obs.metrics.peerPointsFetched.Load()
		for _, format := range []string{"json", "csv", "text"} {
			path := "/v1/exhibits/" + exhibit + "?format=" + format
			code, want := get(t, solo, path)
			if code != http.StatusOK {
				t.Fatalf("solo GET %s: %d\n%s", path, code, want)
			}
			targets := []*httptest.Server{f.obsHTTP}
			if exhibit == "figure4" {
				targets = append(targets, f.https...)
			}
			for ti, ts := range targets {
				code, got := get(t, ts, path)
				if code != http.StatusOK {
					t.Fatalf("fleet[%d] GET %s: %d\n%s", ti, path, code, got)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("fleet[%d] %s differs from solo:\n--- solo ---\n%s\n--- fleet ---\n%s",
						ti, path, want, got)
				}
			}
		}
		// The observer owns no points, so its answers were entirely
		// scatter/gather.
		if f.obs.metrics.peerPointsFetched.Load() == before {
			t.Errorf("observer fetched no %s points; the sweep never offloaded", exhibit)
		}
	}

	if n := f.obs.metrics.peerFetchErrors.Load(); n != 0 {
		t.Errorf("observer hit %d fetch errors against a healthy fleet", n)
	}
	var served uint64
	for _, s := range f.servers {
		served += s.metrics.peerPointsServed.Load()
	}
	if served == 0 {
		t.Error("no replica served any peer points")
	}
}

// TestFleetSurvivesDeadPeer: a replica whose fleet list names a dead
// peer still answers byte-identical to solo — the dead peer's shard
// falls back to local execution.
func TestFleetSurvivesDeadPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit sweeps over HTTP")
	}
	_, solo := testServer(t)

	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from here on
	peers := []Peer{{ID: "live", URL: ""}, {ID: "dead", URL: dead.URL}}
	live := New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "live", Peers: peers,
	})
	ts := httptest.NewServer(live.Handler())
	t.Cleanup(ts.Close)

	// figure4's 75 points make it certain that the ring places some on
	// the dead peer (table5's six all hash to "live").
	path := "/v1/exhibits/figure4?format=text"
	codeSolo, want := get(t, solo, path)
	code, got := get(t, ts, path)
	if codeSolo != http.StatusOK || code != http.StatusOK {
		t.Fatalf("status solo=%d live=%d", codeSolo, code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded fleet differs from solo:\n%s\nvs\n%s", want, got)
	}
	if live.metrics.peerFetchErrors.Load() == 0 {
		t.Error("dead peer produced no fetch errors; was anything offloaded?")
	}
}

// TestPeerPointsEndpoint pins the wire protocol itself: happy path plus
// every request-level failure mode.
func TestPeerPointsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts, "/v1/peer/points?exhibit=table5&points=0,1")
	if code != http.StatusOK {
		t.Fatalf("happy path: %d\n%s", code, body)
	}
	rs, err := decodePeerReply(bytes.NewReader(body), 6, 2)
	if err != nil {
		t.Fatalf("reply rejected: %v\n%s", err, body)
	}
	if rs[0].Engine.Instructions == 0 {
		t.Error("result carries zero instructions; the shard never ran")
	}

	cases := []struct {
		name, path string
		wantCode   int
	}{
		{"unknown exhibit", "/v1/peer/points?exhibit=nope&points=0", http.StatusNotFound},
		{"missing points", "/v1/peer/points?exhibit=table5", http.StatusBadRequest},
		{"bad points", "/v1/peer/points?exhibit=table5&points=1,x", http.StatusBadRequest},
		{"negative point", "/v1/peer/points?exhibit=table5&points=-1", http.StatusBadRequest},
		{"non-canonical point", "/v1/peer/points?exhibit=table5&points=01", http.StatusBadRequest},
		{"index out of range", "/v1/peer/points?exhibit=table5&points=99999", http.StatusUnprocessableEntity},
		{"bad measure", "/v1/peer/points?exhibit=table5&points=0&measure=0", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, body := get(t, ts, tc.path); code != tc.wantCode {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, code, tc.wantCode, body)
		}
	}
}

// oldPeerReply is the reply of the protocol before plans: the batch's
// length under "batch_len" and bare engine results.
type oldPeerReply struct {
	BatchLen int           `json:"batch_len"`
	Results  []core.Result `json:"results"`
}

// TestPeerRejectsOldProtocol: a peer still speaking the batch protocol
// — however plausible its reply — makes a new coordinator fall back to
// local execution, and the answer stays byte-identical to solo.
func TestPeerRejectsOldProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit sweeps over HTTP")
	}
	_, solo := testServer(t)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := len(strings.Split(r.URL.Query().Get("points"), ","))
		rs := make([]core.Result, n)
		for i := range rs {
			rs[i].Instructions = 1
		}
		json.NewEncoder(w).Encode(oldPeerReply{BatchLen: n, Results: rs})
	}))
	t.Cleanup(old.Close)
	live := New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "live", Peers: []Peer{{ID: "live"}, {ID: "old", URL: old.URL}},
	})
	ts := httptest.NewServer(live.Handler())
	t.Cleanup(ts.Close)

	path := "/v1/exhibits/table5?format=json"
	_, want := get(t, solo, path)
	code, got := get(t, ts, path)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("status %d; answer with an old-protocol peer differs from solo:\n%s\nvs\n%s", code, want, got)
	}
	if live.metrics.peerFetchErrors.Load() == 0 || live.metrics.peerPointsFetched.Load() != 0 {
		t.Errorf("fetch errors %d, points fetched %d: the old reply was trusted",
			live.metrics.peerFetchErrors.Load(), live.metrics.peerPointsFetched.Load())
	}
}

// TestOldCoordinatorRejectsNewReply: a new peer's reply, decoded the way
// a coordinator of the batch protocol decodes it, reads a zero batch
// length and so fails that coordinator's geometry check for any real
// batch — it falls back instead of accepting zero-valued results.
func TestOldCoordinatorRejectsNewReply(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts, "/v1/peer/points?exhibit=table5&points=0")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var pr oldPeerReply
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&pr); err != nil {
		t.Fatalf("old decode: %v", err)
	}
	if pr.BatchLen != 0 {
		t.Errorf("old coordinator reads batch_len %d from a new reply, want 0", pr.BatchLen)
	}
}

// FuzzPeerReply: decodePeerReply never panics and accepts only a
// well-formed JSON reply whose plan length and result count match.
func FuzzPeerReply(f *testing.F) {
	good, _ := json.Marshal(peerPointsResponse{PlanLen: 3, Results: make([]experiments.Result, 2)})
	old, _ := json.Marshal(oldPeerReply{BatchLen: 3, Results: make([]core.Result, 2)})
	f.Add(good, 3, 2)
	f.Add(good, 2, 2)
	f.Add(old, 3, 2)
	f.Add([]byte(`{"plan_len":1,"results":[{}]} {}`), 1, 1)
	f.Add([]byte(`{"plan_len":1,"results":[{"Cycle":[{"MLP":1}]}]}`), 1, 1)
	f.Fuzz(func(t *testing.T, data []byte, planLen, n int) {
		rs, err := decodePeerReply(bytes.NewReader(data), planLen, n)
		if err != nil {
			return
		}
		if len(rs) != n {
			t.Fatalf("accepted %d results for %d requested", len(rs), n)
		}
		if !json.Valid(data) {
			t.Fatalf("accepted malformed JSON %q", data)
		}
		var pr peerPointsResponse
		if json.Unmarshal(data, &pr) != nil || pr.PlanLen != planLen {
			t.Fatalf("accepted a reply whose plan length is not %d: %q", planLen, data)
		}
	})
}

// FuzzParsePoints: parsePoints never panics and accepts only a
// comma-separated list of canonical non-negative indices, which it
// returns exactly.
func FuzzParsePoints(f *testing.F) {
	for _, s := range []string{"0", "0,1,2", "", ",", "1,,2", "-1", "01", "+1", "1 ", "99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		idxs, err := parsePoints(s)
		if err != nil {
			return
		}
		parts := make([]string, len(idxs))
		for i, n := range idxs {
			if n < 0 {
				t.Fatalf("accepted negative index %d from %q", n, s)
			}
			parts[i] = strconv.Itoa(n)
		}
		if got := strings.Join(parts, ","); got != s {
			t.Fatalf("parsePoints(%q) = %v, which reads back as %q", s, idxs, got)
		}
	})
}

// TestSoloIgnoresPeerOptions: peer flags without a usable fleet (no
// second replica) leave the daemon in plain solo mode.
func TestSoloIgnoresPeerOptions(t *testing.T) {
	s := New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "only", Peers: []Peer{{ID: "only", URL: "http://localhost:1"}},
	})
	if s.ring != nil || s.peers != nil {
		t.Fatal("single-member fleet formed a ring")
	}
}
