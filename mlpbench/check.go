package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"mlpsim/internal/experiments"
)

// digestsJSON holds the SHA-256 of every exhibit's JSON output, by
// scale, then seed, then exhibit. It was recorded with -record-digests
// and pins the outputs the benchmark accepts for those seeds.
//
//go:embed digests.json
var digestsJSON []byte

// recordedSeeds are the seeds digests are recorded for: the dev seed the
// benchmark was tuned on and one held out from tuning.
var recordedSeeds = []int64{1, 2}

// recordedScales are the scales digests are recorded for: every
// workload's scale and the tiny scale the benchmark's tests use.
var recordedScales = []string{"tiny", "smoke"}

type digestTable map[string]map[string]map[string]string // scale -> seed -> exhibit -> sha256

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// lookup returns the recorded digest for one exhibit, if any.
func (t digestTable) lookup(sc Scale, seed int64, exhibit string) (string, bool) {
	d, ok := t[sc.Name][strconv.FormatInt(seed, 10)][exhibit]
	return d, ok
}

// renderings holds one exhibit result in the three wire formats.
type renderings struct {
	JSON, CSV, Text []byte
}

func render(out fmt.Stringer) (renderings, error) {
	var j, c bytes.Buffer
	if err := experiments.WriteJSON(&j, out); err != nil {
		return renderings{}, fmt.Errorf("render json: %w", err)
	}
	if err := experiments.WriteCSV(&c, out); err != nil {
		return renderings{}, fmt.Errorf("render csv: %w", err)
	}
	return renderings{JSON: j.Bytes(), CSV: c.Bytes(), Text: []byte(out.String())}, nil
}

func (r renderings) format(f string) []byte {
	switch f {
	case "csv":
		return r.CSV
	case "text":
		return r.Text
	}
	return r.JSON
}

// jsonDigest returns the hex SHA-256 of an exhibit result's JSON.
func jsonDigest(out fmt.Stringer) (string, error) {
	h := sha256.New()
	if err := experiments.WriteJSON(h, out); err != nil {
		return "", fmt.Errorf("render json: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordDigests runs every exhibit at each recorded scale and seed and
// writes the digest table to path.
func recordDigests(path string) error {
	t := digestTable{}
	for _, name := range recordedScales {
		sc := scales[name]
		t[name] = map[string]map[string]string{}
		for _, seed := range recordedSeeds {
			s := newSetup(seed, sc)
			m := map[string]string{}
			for _, r := range experiments.All() {
				d, err := jsonDigest(r.Run(s))
				if err != nil {
					return err
				}
				m[r.ID] = d
			}
			t[name][strconv.FormatInt(seed, 10)] = m
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// report identifies the code it measured even where no VCS revision is
// available. Hidden directories (build output included) are skipped.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
