package server

import (
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"mlpsim/internal/experiments"
)

// FuzzExhibitQuery: parseExhibitQuery never panics, and for any raw
// query string either returns a request that is valid and faithful to
// the query, or an error the exhibit endpoint answers with a 4xx
// without running anything.
func FuzzExhibitQuery(f *testing.F) {
	for _, q := range []string{
		"", "seed=2", "seed=2&warmup=0&measure=1&format=csv", "format=text",
		"warmup=-1", "measure=0", "measure=-5", "seed=abc", "format=xml", "format=",
		"measure=99999999999999999999", "seed=-9223372036854775808", "warmup=+3",
		"seed=1&seed=2", "%zz", "format=json;seed=1", "measure=1e6",
	} {
		f.Add(q)
	}
	def := experiments.Quick(1)
	def.Warmup, def.Measure = 20_000, 60_000
	def.Parallelism = 1
	s := New(Options{Setup: def, RequestTimeout: time.Minute})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, raw string) {
		// The handler reads r.URL.Query(), which is exactly this parse
		// with its error dropped.
		q, _ := url.ParseQuery(raw)
		x, err := parseExhibitQuery(q, def)
		if err != nil {
			req := httptest.NewRequest("GET", "/v1/exhibits/figure2", nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("query %q rejected (%v) but answered %d, want 4xx", raw, err, rec.Code)
			}
			return
		}
		if x.Warmup < 0 || x.Measure <= 0 {
			t.Fatalf("query %q accepted with warmup %d, measure %d", raw, x.Warmup, x.Measure)
		}
		for _, p := range []struct {
			name      string
			got, dflt int64
		}{{"seed", x.Seed, def.Seed}, {"warmup", x.Warmup, def.Warmup}, {"measure", x.Measure, def.Measure}} {
			want := p.dflt
			if v := q.Get(p.name); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("query %q accepted a non-integer %s=%q", raw, p.name, v)
				}
				want = n
			}
			if p.got != want {
				t.Fatalf("query %q: %s = %d, want %d", raw, p.name, p.got, want)
			}
		}
		switch format := q.Get("format"); {
		case format == "" && x.Format == "json":
		case format == x.Format && (format == "json" || format == "csv" || format == "text"):
		default:
			t.Fatalf("query %q: format %q accepted as %q", raw, format, x.Format)
		}
	})
}
