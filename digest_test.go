package mlpsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// digestScale is the "tiny" scale of mlpbench's scales table, the one
// its digests.json records alongside "smoke".
const (
	digestScale   = "tiny"
	digestWarmup  = 2_000
	digestMeasure = 6_000
)

// TestExhibitDigests checks every exhibit's JSON output at the tiny
// scale, seeds 1 and 2, against the SHA-256 digests mlpbench records in
// mlpbench/digests.json (read in place, so there is one digest source).
// Each seed runs three ways: with the in-memory trace cache, then with a
// fresh cache spilling to an empty directory, then with another fresh
// cache that must replay those spills without annotating again.
func TestExhibitDigests(t *testing.T) {
	data, err := os.ReadFile("mlpbench/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var table map[string]map[string]map[string]string // scale -> seed -> exhibit -> sha256
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatalf("digests.json: %v", err)
	}
	for _, seed := range []int64{1, 2} {
		want := table[digestScale][strconv.FormatInt(seed, 10)]
		if len(want) != len(experiments.All()) {
			t.Fatalf("seed %d: %d recorded digests for %d exhibits", seed, len(want), len(experiments.All()))
		}
		dir := t.TempDir()
		for _, mode := range []string{"memory", "disk-cold", "disk-warm"} {
			s := digestSetup(seed)
			if mode != "memory" {
				s.Cache.SetDir(dir)
			}
			for _, r := range experiments.All() {
				h := sha256.New()
				if err := experiments.WriteJSON(h, r.Run(s)); err != nil {
					t.Fatalf("%s seed %d %s: %v", mode, seed, r.ID, err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[r.ID] {
					t.Errorf("%s seed %d %s: digest %s, recorded %s", mode, seed, r.ID, got, want[r.ID])
				}
			}
			if st := s.Cache.Stats(); mode == "disk-warm" && (st.Builds != 0 || st.DiskHits == 0) {
				t.Errorf("seed %d warm pass: %d builds and %d disk hits, want only disk hits", seed, st.Builds, st.DiskHits)
			}
		}
	}
}

// digestSetup builds the Setup the way mlpbench's newSetup does:
// experiments.Quick with a fresh in-memory cache, at the digest scale.
func digestSetup(seed int64) experiments.Setup {
	s := experiments.Quick(seed)
	s.Warmup, s.Measure = digestWarmup, digestMeasure
	s.Workloads = workload.Presets(seed)
	s.GangStats = &experiments.GangStats{}
	return s
}
