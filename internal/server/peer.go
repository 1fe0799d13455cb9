package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// Peer mode.
//
// N daemon replicas cooperate on one exhibit: every replica builds the
// same consistent-hash ring over the fleet's ids, so for any result key
// (exhibit, seed, warmup, measure) plus a point index of the exhibit's
// plan they all agree on the owner without coordination. A replica
// answering GET /v1/exhibits/{name} runs its own share of the plan while
// fetching remotely-owned points over GET /v1/peer/points; plans are a
// pure function of the key, so only (exhibit, indices) and the resulting
// []experiments.Result travel the wire. Any fetch failure — dead peer,
// a plan length that differs from the coordinator's, a short or
// malformed reply — falls back to local execution, so a degraded fleet
// is slower, never wrong, and the merged response stays byte-identical
// to a solo daemon's.
//
// The peer-points endpoint itself never re-shards (RunExhibitShard
// drops the router), so requests cannot recurse through the fleet.

// Peer identifies one replica of the fleet.
type Peer struct {
	// ID is the replica's stable identity on the hash ring.
	ID string
	// URL is the replica's base URL, e.g. "http://host:8080".
	URL string
}

// maxPeerPoints bounds one peer-points request; a full exhibit plan is
// far below this.
const maxPeerPoints = 65536

// peerPointsResponse is the wire format of /v1/peer/points. The length
// field is deliberately not the batch protocol's "batch_len", so mixed
// versions degrade instead of trusting each other: a batch-protocol
// coordinator reads a zero batch length from this reply, and
// decodePeerReply refuses a batch-protocol reply's unknown fields. Both
// fall back to local execution.
type peerPointsResponse struct {
	// PlanLen is the peer's point count for the exhibit's plan; the
	// coordinator cross-validates it against its own plan.
	PlanLen int `json:"plan_len"`
	// Results carries the executed points, in request order.
	Results []experiments.Result `json:"results"`
}

// peerRouter routes one exhibit run's points across the fleet. It
// implements experiments.ShardRouter.
type peerRouter struct {
	s   *Server
	ctx context.Context
	key resultKey
}

// Owner hashes the point's ring key: the result-cache key plus the
// point's index in the exhibit's plan.
func (r *peerRouter) Owner(index int) string {
	id := r.s.ring.owner(fmt.Sprintf("%s#p%d", r.key, index))
	if id == r.s.opts.PeerID {
		return ""
	}
	return id
}

func (r *peerRouter) Fetch(owner string, planLen int, indices []int) ([]experiments.Result, error) {
	res, err := r.fetch(owner, planLen, indices)
	if err != nil {
		r.s.metrics.peerFetchErrors.Add(1)
		return nil, err
	}
	r.s.metrics.peerPointsFetched.Add(uint64(len(indices)))
	return res, nil
}

func (r *peerRouter) fetch(owner string, planLen int, indices []int) ([]experiments.Result, error) {
	r.s.metrics.peerFetches.Add(1)
	p, ok := r.s.peers[owner]
	if !ok {
		return nil, fmt.Errorf("unknown peer %q", owner)
	}
	pts := make([]string, len(indices))
	for i, idx := range indices {
		pts[i] = strconv.Itoa(idx)
	}
	q := url.Values{
		"exhibit": {r.key.Exhibit},
		"seed":    {strconv.FormatInt(r.key.Seed, 10)},
		"warmup":  {strconv.FormatInt(r.key.Warmup, 10)},
		"measure": {strconv.FormatInt(r.key.Measure, 10)},
		"points":  {strings.Join(pts, ",")},
	}
	u := strings.TrimSuffix(p.URL, "/") + "/v1/peer/points?" + q.Encode()
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.s.peerClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("peer %s: %s: %s", owner, resp.Status, strings.TrimSpace(string(body)))
	}
	rs, err := decodePeerReply(resp.Body, planLen, len(indices))
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	return rs, nil
}

// decodePeerReply decodes one /v1/peer/points reply and accepts it only
// when it is a single well-formed JSON object with no unknown fields,
// its plan length is the coordinator's planLen, and it carries exactly
// n results.
func decodePeerReply(r io.Reader, planLen, n int) ([]experiments.Result, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var pr peerPointsResponse
	if err := dec.Decode(&pr); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decode: trailing data after the reply")
	}
	if pr.PlanLen != planLen {
		return nil, fmt.Errorf("peer planned %d points, coordinator has %d — plan mismatch", pr.PlanLen, planLen)
	}
	if len(pr.Results) != n {
		return nil, fmt.Errorf("%d results for %d requested points", len(pr.Results), n)
	}
	return pr.Results, nil
}

// parsePoints parses the comma-separated point index list; each index
// must be a canonical non-negative decimal (no sign, no leading zeros).
func parsePoints(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("points parameter is required")
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxPeerPoints {
		return nil, fmt.Errorf("%d points exceeds the per-request cap %d", len(parts), maxPeerPoints)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || strconv.Itoa(n) != p {
			return nil, fmt.Errorf("points=%q: bad index %q", s, p)
		}
		out[i] = n
	}
	return out, nil
}

// handlePeerPoints executes some points of an exhibit's plan on behalf
// of a coordinating replica. The endpoint is available on every
// daemon (peer fleet or not): it only exposes results the public
// exhibit endpoint already serves, at finer granularity.
func (s *Server) handlePeerPoints(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("exhibit")
	if experiments.Find(name) == nil {
		httpError(w, http.StatusNotFound, "unknown exhibit %q", name)
		return
	}
	run, err := parseRunParams(q, s.opts.Setup)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	indices, err := parsePoints(q.Get("points"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// Shard execution shares the sweep semaphore with full exhibit runs:
	// a replica's total simulation load is bounded no matter who asks.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		httpError(w, http.StatusGatewayTimeout, "peer points %s: %v", name, ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	s.metrics.peerRequests.Add(1)

	setup := s.opts.Setup
	setup.Seed = run.Seed
	setup.Workloads = workload.Presets(run.Seed)
	setup.Warmup = run.Warmup
	setup.Measure = run.Measure
	setup.Ctx = ctx

	results, planLen, err := experiments.RunExhibitShard(setup, name, indices)
	if err != nil {
		// 422: the request was well-formed but this replica cannot execute
		// those points (an index past its plan, a cancelled context). The
		// coordinator falls back to local execution.
		httpError(w, http.StatusUnprocessableEntity, "shard %s: %v", name, err)
		return
	}
	s.metrics.peerPointsServed.Add(uint64(len(results)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(peerPointsResponse{PlanLen: planLen, Results: results})
}
