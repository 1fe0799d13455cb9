package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mlpsim/internal/experiments"
	"mlpsim/internal/server"
)

// cliHelperEnv flips TestCLIHelper from a no-op into the real CLI:
// the test binary re-executes itself with this set, so "CLI output"
// below means the actual cmd/experiments main(), not a reimplementation.
const cliHelperEnv = "MLPSIM_CLI_HELPER"

// TestCLIHelper is the subprocess body: it replaces os.Args with the
// arguments in MLPSIM_CLI_ARGS and runs main().
func TestCLIHelper(t *testing.T) {
	if os.Getenv(cliHelperEnv) != "1" {
		t.Skip("helper for the server-vs-CLI equivalence tests; set " + cliHelperEnv + " to run")
	}
	os.Args = append([]string{"experiments"}, strings.Fields(os.Getenv("MLPSIM_CLI_ARGS"))...)
	main()
}

// runCLI executes the real CLI with args via the helper process.
func runCLI(t *testing.T, args string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestCLIHelper$", "-test.v")
	cmd.Env = append(os.Environ(), cliHelperEnv+"=1", "MLPSIM_CLI_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("CLI %q failed: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestServerMatchesCLI is the golden equivalence test of the daemon:
// for three Quick-scale exhibits, the JSON and CSV bodies served by
// GET /v1/exhibits/{name} must be byte-identical to the files the real
// CLI writes with -json/-csv for the same seed, warmup and measure.
// The two sides share one on-disk trace-cache directory, so this also
// exercises the CLI-publishes / daemon-mmaps cross-process path.
//
// For table5 the CLI side runs with -gang 1 (gang dispatch off) while
// the daemon gangs by default, so byte equality here also pins
// gang-dispatched sweeps identical to sequential ones across the
// process boundary.
func TestServerMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and runs Quick-scale sweeps")
	}
	outDir := t.TempDir()
	cacheDir := filepath.Join(outDir, "atrace")
	exhibits := []struct{ name, extraArgs string }{
		{"figure2", ""},
		{"table5", "-gang 1"}, // sequential CLI vs ganged daemon
		{"table6", ""},
		// Mixed SoA/scalar gangs on the daemon side vs sequential CLI.
		{"ext-storesets", "-gang 1"},
		// Scheduled-SMT policy sweep: pins the trace pre-pass + policy
		// replays deterministic across the process boundary.
		{"ext-smtsched", ""},
	}

	// CLI side: Quick scale (seed 1, 300k warm-up, 1M measured).
	for _, ex := range exhibits {
		runCLI(t, strings.TrimSpace(fmt.Sprintf(
			"-only %s -seed 1 -warmup 300000 -measure 1000000 -csv %s -json %s -trace-cache-dir %s %s",
			ex.name, outDir, outDir, cacheDir, ex.extraArgs)))
	}

	// Server side: same defaults, same shared spill directory.
	setup := experiments.Quick(1)
	setup.Cache.SetDir(cacheDir)
	srv := server.New(server.Options{Setup: setup})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, ex := range exhibits {
		ex := ex.name
		for _, f := range []struct{ format, ext string }{{"json", ".json"}, {"csv", ".csv"}} {
			t.Run(ex+"/"+f.format, func(t *testing.T) {
				url := fmt.Sprintf("%s/v1/exhibits/%s?seed=1&warmup=300000&measure=1000000&format=%s",
					ts.URL, ex, f.format)
				resp, err := ts.Client().Get(url)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d\n%s", resp.StatusCode, body)
				}
				want, err := os.ReadFile(filepath.Join(outDir, ex+f.ext))
				if err != nil {
					t.Fatalf("CLI wrote no %s output: %v", f.format, err)
				}
				if string(body) != string(want) {
					t.Errorf("server %s bytes differ from CLI output\nserver:\n%s\nCLI:\n%s", f.format, body, want)
				}
			})
		}
	}
}

// TestServeSIGTERMExitsZero boots the real CLI in -serve mode, sends
// SIGTERM and asserts a clean drain: "drained" in the log and exit
// status 0. One case signals after the daemon has served an exhibit; the
// other signals the moment /healthz first answers 200, which a daemon
// that installed its signal handler only after it started serving would
// not survive.
func TestServeSIGTERMExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon subprocess")
	}
	for _, tc := range []struct {
		name    string
		exhibit bool
	}{
		{"after-exhibit", true},
		{"right-after-first-healthz", false},
	} {
		t.Run(tc.name, func(t *testing.T) { serveAndTerminate(t, tc.exhibit) })
	}
}

func serveAndTerminate(t *testing.T, fetchExhibit bool) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestCLIHelper$", "-test.v")
	cmd.Env = append(os.Environ(), cliHelperEnv+"=1",
		"MLPSIM_CLI_ARGS=-serve 127.0.0.1:0 -warmup 20000 -measure 60000")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its resolved address before serving.
	var base string
	scanner := bufio.NewScanner(stdout)
	lines := make(chan string)
	go func() {
		for scanner.Scan() {
			lines <- scanner.Text()
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	var logged []string
wait:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited before announcing its address:\n%s", strings.Join(logged, "\n"))
			}
			logged = append(logged, line)
			if rest, found := strings.CutPrefix(line, "experiments: serving on "); found {
				base = rest
				break wait
			}
		case <-deadline:
			t.Fatalf("daemon never announced its address:\n%s", strings.Join(logged, "\n"))
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz against %s: %v", base, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
	if fetchExhibit {
		resp, err = http.Get(base + "/v1/exhibits/table5?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exhibit request = %d, want 200", resp.StatusCode)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	sawDrained := false
	for line := range lines {
		logged = append(logged, line)
		if strings.Contains(line, "drained") {
			sawDrained = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, strings.Join(logged, "\n"))
	}
	if !sawDrained {
		t.Errorf("daemon log never reported a clean drain:\n%s", strings.Join(logged, "\n"))
	}
}
