package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload BENCHMARK.json lists (or the one
// -workload names) n times, each run in a fresh process with seeds first..first+n-1, and
// prints every end-to-end metric's median, quartiles and spread
// (interquartile range over median) against its bound from
// BENCHMARK.json. A spread above a third of its bound is flagged,
// setup_s's included.
func runSteady(n int, first int64, seconds float64, only string, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode reads BENCHMARK.json from the checkout root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := environment()
	fmt.Fprintf(stdout, "steadiness: %d runs per workload, %gs each; nproc=%d GOMAXPROCS=%d go=%s commit=%s source_sha256=%s\n",
		n, seconds, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.SourceDigest)
	names := []string{only}
	if only == "" {
		names = names[:0]
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := map[string][]float64{}
		for seed := first; seed < first+int64(n); seed++ {
			res, err := runChild(self, w.Name, seed, seconds, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct {
				fmt.Fprintf(stdout, "  %s seed %d: %d of %d operations FAILED\n", w.Name, seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "%s\n", w.Name)
		for _, e := range bf.EndToEnd {
			v := values[e.Name]
			q1, med, q3, ok := Quartiles(v)
			if !ok {
				return fmt.Errorf("%s: %d values of %s", w.Name, len(v), e.Name)
			}
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread > e.Bound:
				verdict = "OVER BOUND"
			case spread > e.Bound/3:
				verdict = "over a third of bound"
			}
			fmt.Fprintf(stdout, "  %-14s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.3f bound %.3f  %s\n",
				e.Name, med, e.Unit, q1, q3, spread, e.Bound, verdict)
		}
	}
	return nil
}

// runChild runs one benchmark run in a fresh process and parses its
// result line.
func runChild(self, workload string, seed int64, seconds float64, stderr io.Writer) (Result, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return Result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return Result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
