package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one scheduled GET /v1/exhibits/{Exhibit}.
type Request struct {
	ID      int64
	Step    int           // index of the rate step it belongs to
	Due     time.Duration // send time, from the start of its step
	Exhibit string
	Seed    int64
	Format  string // json, csv or text
}

// Outcome is what happened to one Request. Times are offsets from the
// start of the request's step.
type Outcome struct {
	// Skipped is set when the step was abandoned before this request
	// was taken; it was never sent.
	Skipped bool
	Done    time.Duration
	Status  int
	Err     error
	BodySHA string
}

// Latency is the request's time from when it was due, so a stall that
// delays later sends is charged to them.
func (o Outcome) Latency(r Request) time.Duration { return o.Done - r.Due }

// Step is one fixed arrival rate held for a duration.
type Step struct {
	Rate     float64 // requests per second
	Duration time.Duration
}

// Mix is how a schedule picks each request's exhibit, seed and format.
type Mix struct {
	// Exhibits in popularity order; the share of rank k is
	// proportional to 1/(k+1), a Zipf law.
	Exhibits []string
	// HotSeeds share the requests equally.
	HotSeeds []int64
	// Formats share the requests by FormatWeights.
	Formats       []string
	FormatWeights []float64
}

// Schedule draws the arrivals for steps from rng. Each step gets exactly
// Rate x Duration requests at uniformly random instants (a Poisson
// process conditioned on its count). The mix is stratified: each
// exhibit, format and seed gets its share of the step's requests by
// largest remainder, and rng shuffles who goes where, so every seed
// offers the same load and only the order, timing and seed values
// differ.
func Schedule(rng *rand.Rand, steps []Step, mix Mix) [][]Request {
	exW := make([]float64, len(mix.Exhibits))
	for k := range exW {
		exW[k] = 1 / float64(k+1)
	}
	hotW := make([]float64, len(mix.HotSeeds))
	for k := range hotW {
		hotW[k] = 1
	}
	out := make([][]Request, len(steps))
	var id int64
	for si, st := range steps {
		n := int(math.Round(st.Rate * st.Duration.Seconds()))
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = time.Duration(rng.Int63n(int64(st.Duration)))
		}
		sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
		exhibits := apportion(rng, n, exW)
		formats := apportion(rng, n, mix.FormatWeights)
		seeds := apportion(rng, n, hotW)
		for i, due := range dues {
			id++
			out[si] = append(out[si], Request{ID: id, Step: si, Due: due,
				Exhibit: mix.Exhibits[exhibits[i]], Seed: mix.HotSeeds[seeds[i]], Format: mix.Formats[formats[i]]})
		}
	}
	return out
}

// apportion returns n indices into w, each index appearing in proportion
// to its weight (largest-remainder rounding), in an order shuffled by
// rng.
func apportion(rng *rand.Rand, n int, w []float64) []int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	counts := make([]int, len(w))
	rem := make([]float64, len(w))
	left := n
	for i, x := range w {
		exact := float64(n) * x / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(w))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; k < left; k++ {
		counts[order[k%len(order)]]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// Client sends exhibit requests to one daemon over a bounded set of
// keep-alive connections.
type Client struct {
	Base  string
	HTTP  *http.Client
	Conns int
}

// NewClient returns a client for the daemon at base using at most conns
// connections.
func NewClient(base string, conns int, timeout time.Duration) *Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &Client{Base: base, HTTP: &http.Client{Transport: tr, Timeout: timeout}, Conns: conns}
}

// Close releases the client's idle connections.
func (c *Client) Close() { c.HTTP.CloseIdleConnections() }

// Get fetches one exhibit and hashes the body.
func (c *Client) Get(ctx context.Context, r Request) (status int, bodySHA string, err error) {
	url := fmt.Sprintf("%s/v1/exhibits/%s?seed=%d&format=%s", c.Base, r.Exhibit, r.Seed, r.Format)
	return c.fetch(ctx, url)
}

func (c *Client) fetch(ctx context.Context, url string) (status int, bodySHA string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return resp.StatusCode, "", fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, hex.EncodeToString(h.Sum(nil)), nil
}

// RunOpenLoop sends one step's reqs on their schedule, whatever the
// daemon's state, over c.Conns connections: each worker takes the next
// request in due order, sleeps until it is due and sends it, so a
// request waits only while every connection is busy. If a request is
// taken more than maxLate after it was due, the queue is growing and the
// step is abandoned: the rest are skipped, not sent. It returns when every sent
// request has finished. lag is how late each request was sent. With rec
// set, requests whose ID is even record a "request" span (from when it
// was due) with "queue" and "http" children; odd ones run untraced,
// which gives the tracing overhead.
func RunOpenLoop(ctx context.Context, c *Client, reqs []Request, maxLate time.Duration, rec *Recorder) (outs []Outcome, lag []time.Duration) {
	outs = make([]Outcome, len(reqs))
	lag = make([]time.Duration, len(reqs))
	var next atomic.Int64
	var abandoned atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if abandoned.Load() || time.Since(start)-r.Due > maxLate {
					abandoned.Store(true)
					outs[i].Skipped = true
					continue
				}
				waitUntil(start.Add(r.Due))
				lag[i] = time.Since(start) - r.Due
				rec := rec
				if r.ID%2 == 1 {
					rec = nil // odd requests run untraced
				}
				span := rec.BeginAt("request", 0, r.ID, start.Add(r.Due))
				rec.EndAt(rec.BeginAt("queue", span, r.ID, start.Add(r.Due)), time.Now())
				h := rec.Begin("http", span, r.ID)
				var o Outcome
				o.Status, o.BodySHA, o.Err = c.Get(ctx, r)
				o.Done = time.Since(start)
				rec.End(h)
				rec.End(span)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, lag
}

// spinFor is how long before a due time waitUntil stops sleeping and
// spins: a sleeping goroutine wakes up to a millisecond late on a busy
// virtual machine, which would otherwise be charged to every request.
const spinFor = time.Millisecond

// waitUntil returns at t, sleeping until shortly before it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// StepStats summarises one rate step.
type StepStats struct {
	Step      Step
	N         int // requests sent
	Skipped   int // requests not sent because the step was abandoned
	Failed    int
	Latencies []float64 // ms, successful requests
	P50       float64
	Tail      Tail
	// Backlog counts requests due but unfinished at the step's end.
	Backlog int
	// Achieved is successful requests per second from the step's start
	// to its last completion.
	Achieved float64
}

// Passes reports whether the step met the latency limit with no
// failures and no growing backlog: it was not abandoned, and at its end
// no more requests were outstanding than arrive within the limit, plus
// one per connection (Little's law for a step that meets the limit).
func (s StepStats) Passes(limitMS float64, conns int) bool {
	tailOK := s.Tail.N > 0 && s.Tail.Value <= limitMS
	return s.Failed == 0 && s.Skipped == 0 && tailOK && s.Backlog <= int(s.Step.Rate*limitMS/1000)+conns
}

// AnalyzeStep summarises one step's outcomes. failed reports whether
// outcome i counts as a failure.
func AnalyzeStep(st Step, reqs []Request, outs []Outcome, failed func(i int) bool) StepStats {
	s := StepStats{Step: st}
	var last time.Duration
	ok := 0
	for i, r := range reqs {
		o := outs[i]
		if o.Skipped {
			s.Skipped++
			continue
		}
		s.N++
		if o.Done > st.Duration {
			s.Backlog++
		}
		if failed(i) {
			s.Failed++
			continue
		}
		ok++
		s.Latencies = append(s.Latencies, float64(o.Latency(r))/1e6)
		last = max(last, o.Done)
	}
	s.P50 = Median(s.Latencies)
	s.Tail, _ = HighestTail(s.Latencies)
	if last > 0 {
		s.Achieved = float64(ok) / last.Seconds()
	}
	return s
}

// maxLagMS returns the largest send lateness in milliseconds.
func maxLagMS(lag []time.Duration) float64 {
	m := time.Duration(0)
	for _, l := range lag {
		m = max(m, l)
	}
	return float64(m) / 1e6
}
