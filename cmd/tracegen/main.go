// Command tracegen generates a synthetic workload trace and stores it in
// the binary trace format consumed by cmd/mlpsim.
//
// With -annotate it instead runs the functional annotation pass (cache
// hierarchy + branch predictor) over the workload and writes an annotated
// trace in the spill format of the trace cache: an MLPCOLS2 manifest at
// the -o path plus one MLPCOLS1 segment file per capture worker beside
// it ("<path>.seg0000", ...). -warmup instructions train the annotator,
// then -n post-warmup instructions are captured. With -workers N the
// window splits into N segments captured by parallel pipelines
// (generation -> annotation -> columnar encoding per segment, exploiting
// the seed-deterministic generator), each segment file published the
// moment it completes and the manifest written last; the result is
// bit-identical to a one-worker capture. cmd/mlpsim memory-maps annotated
// traces and replays them directly, skipping its own annotation and
// warm-up.
//
// Examples:
//
//	tracegen -workload database -n 10000000 -o db.trc
//	tracegen -workload database -annotate -warmup 2000000 -n 8000000 -o db.acol
//	tracegen -workload database -annotate -workers 4 -n 8000000 -o db.acol
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "database", "workload: database, jbb, web, chase, stream, serialized, ibound")
		seed     = flag.Int64("seed", 1, "generation seed")
		n        = flag.Int64("n", 10_000_000, "instructions to generate (post-warmup when -annotate)")
		out      = flag.String("o", "", "output file (required)")
		annotful = flag.Bool("annotate", false, "write a pre-annotated trace (MLPCOLS2 manifest plus segment files)")
		warmup   = flag.Int64("warmup", 2_000_000, "annotator warm-up instructions (only with -annotate)")
		workers  = flag.Int("workers", 1, "with -annotate: parallel capture workers, one segment each")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o output file is required")
		os.Exit(1)
	}

	var cfg workload.Config
	switch *name {
	case "database", "db":
		cfg = workload.Database(*seed)
	case "jbb", "specjbb", "specjbb2000":
		cfg = workload.JBB(*seed)
	case "web", "specweb", "specweb99":
		cfg = workload.Web(*seed)
	case "chase", "pointerchase":
		cfg = workload.PointerChase(*seed)
	case "stream":
		cfg = workload.Stream(*seed)
	case "serialized":
		cfg = workload.Serialized(*seed)
	case "ibound":
		cfg = workload.IBound(*seed)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown workload %q\n", *name)
		os.Exit(1)
	}

	if *annotful {
		if *workers < 1 {
			fmt.Fprintln(os.Stderr, "tracegen: -workers must be >= 1")
			os.Exit(1)
		}
		writeAnnotated(cfg, *out, *warmup, *n, *workers)
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	defer f.Close()

	enc, err := trace.NewEncoder(f, uint64(*n))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	g := workload.MustNew(cfg)
	src := trace.Limit(g, *n)
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := enc.Encode(in); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	}
	if err := enc.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	info, err := f.Stat()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d instructions to %s (%d bytes, %.2f bytes/inst)\n",
		enc.Count(), *out, info.Size(), float64(info.Size())/float64(enc.Count()))
}

// writeAnnotated runs the pipelined capture, one segment per worker,
// printing each segment as it is published so the time-to-first-replay
// win is visible.
func writeAnnotated(cfg workload.Config, out string, warmup, n int64, workers int) {
	start := time.Now()
	p := atrace.CaptureSegmentedToFile(out, atrace.SegSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(cfg), annotate.Config{})
		},
		Warmup:       warmup,
		Measure:      n,
		SegmentInsts: (n + int64(workers) - 1) / int64(workers),
		Workers:      workers,
	})
	for k := 0; k < p.Segments(); k++ {
		s, err := p.Segment(k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		fmt.Printf("segment %04d: %d instructions published after %.2fs\n",
			k, s.Len(), time.Since(start).Seconds())
	}
	ss, err := p.Wait()
	if err == nil {
		err = p.PublishErr()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	var bytes int64
	for _, path := range append([]string{out}, segmentFilesOf(out, ss.Segments())...) {
		if fi, serr := os.Stat(path); serr == nil {
			bytes += fi.Size()
		}
	}
	fmt.Printf("wrote %d annotated instructions to %s (%d segments, %d bytes, %.2f bytes/inst, warmup %d, %.2fs)\n",
		ss.Len(), out, ss.Segments(), bytes, float64(bytes)/float64(ss.Len()), ss.FirstIndex(), time.Since(start).Seconds())
}

func segmentFilesOf(base string, k int) []string {
	var out []string
	for i := 0; i < k; i++ {
		out = append(out, fmt.Sprintf("%s.seg%04d", base, i))
	}
	return out
}
