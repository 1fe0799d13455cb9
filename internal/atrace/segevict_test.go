package atrace

import (
	"bytes"
	"os"
	"sync/atomic"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// TestPartialEvictionRebuildsOnlyMissing is the acceptance test for
// partial segment eviction: trim the tail of a segmented spill under
// the byte cap, then prove a fresh cache rebuilds ONLY the evicted
// segments — one warm pass for the contiguous run, not a full-trace
// rebuild — bit-identical to the originals, with the byte-cap index
// recharged to exactly the bytes on disk.
func TestPartialEvictionRebuildsOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(26)[0]
	key := Key{Workload: w, Annot: "segevict-rebuild", Warmup: testWarmup, Measure: testMeasure}
	hash := keyHash(key)
	mono := captureStream(t, w, annotate.Config{})

	var factoryCalls atomic.Int64
	spec := BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			factoryCalls.Add(1)
			return annotate.New(workload.MustNew(w), annotate.Config{})
		},
		Warmup:  testWarmup,
		Measure: testMeasure,
	}
	newSegCache := func() *Cache {
		c := NewCache()
		c.SetDir(dir)
		c.disk.segInsts = testMeasure / 4 // 4 segments
		return c
	}

	c1 := newSegCache()
	assertSameReplay(t, mono, c1.GetTrace(key, spec))
	d := newDiskCache(dir)
	base := d.spillPath(hash)
	origSeg := make(map[int][]byte)
	for k := 2; k <= 3; k++ {
		data, err := os.ReadFile(segmentPath(base, k))
		if err != nil {
			t.Fatalf("segment %d after build: %v", k, err)
		}
		origSeg[k] = data
	}
	callsFullBuild := factoryCalls.Load() // one capture worker

	// Trim exactly the last two segments off the tail.
	want := int64(len(origSeg[2]) + len(origSeg[3]))
	var freed int64
	d.withIndex(func(idx *indexFile) { freed = d.evictSegments(idx, hash, want) })
	if freed != want {
		t.Fatalf("evictSegments freed %d bytes, want %d", freed, want)
	}
	if n := d.segEvictions.Load(); n != 2 {
		t.Fatalf("%d segment evictions, want 2", n)
	}
	for k := 2; k <= 3; k++ {
		if _, err := os.Stat(segmentPath(base, k)); !os.IsNotExist(err) {
			t.Fatalf("segment %d still present after eviction: %v", k, err)
		}
	}
	for k := 0; k <= 1; k++ {
		if _, err := os.Stat(segmentPath(base, k)); err != nil {
			t.Fatalf("live segment %d disturbed by tail eviction: %v", k, err)
		}
	}
	ev := readEvicted(base)
	if len(ev) != 2 || !ev[2] || !ev[3] {
		t.Fatalf("sidecar names %v, want exactly {2,3}", ev)
	}

	// A fresh cache hits the hole and rebuilds only the missing run.
	c2 := newSegCache()
	before := factoryCalls.Load()
	assertSameReplay(t, mono, c2.GetTrace(key, spec))
	if delta := factoryCalls.Load() - before; delta != 1 {
		t.Errorf("rebuild used %d annotators, want 1 (one warm pass for the contiguous run [2,3])", delta)
	}
	st := c2.Stats()
	if st.SegRebuilds != 2 {
		t.Errorf("SegRebuilds = %d, want 2", st.SegRebuilds)
	}
	if st.Builds != 1 || st.DiskHits != 0 {
		t.Errorf("Builds=%d DiskHits=%d, want the rebuild counted as 1 build, 0 disk hits", st.Builds, st.DiskHits)
	}
	if st.Quarantined != 0 || st.DiskEvictions != 0 {
		t.Errorf("Quarantined=%d DiskEvictions=%d, want 0/0 — a hole is not corruption", st.Quarantined, st.DiskEvictions)
	}
	// Rebuilt segments are bit-identical to the originals.
	for k := 2; k <= 3; k++ {
		data, err := os.ReadFile(segmentPath(base, k))
		if err != nil {
			t.Fatalf("rebuilt segment %d: %v", k, err)
		}
		if !bytes.Equal(data, origSeg[k]) {
			t.Errorf("rebuilt segment %d differs from the original bytes", k)
		}
	}
	// Sidecar cleared, index recharged to exactly the bytes on disk.
	if evAfter := readEvicted(base); len(evAfter) != 0 {
		t.Errorf("sidecar still names %v after rebuild", evAfter)
	}
	wantBytes := d.spillBytes(hash)
	d.withIndex(func(idx *indexFile) {
		if e, ok := idx.Entries[hash]; !ok || e.Bytes != wantBytes {
			t.Errorf("index entry %+v, want exactly %d bytes (no double-charge)", e, wantBytes)
		}
	})

	// Third cache: the repaired spill is a plain disk hit, no annotator.
	c3 := newSegCache()
	before = factoryCalls.Load()
	assertSameReplay(t, mono, c3.GetTrace(key, spec))
	if delta := factoryCalls.Load() - before; delta != 0 {
		t.Errorf("disk hit after repair spawned %d annotators, want 0", delta)
	}
	if st := c3.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Errorf("DiskHits=%d Builds=%d after repair, want pure disk hit", st.DiskHits, st.Builds)
	}
	if callsFullBuild != 1 {
		t.Errorf("full build used %d annotators, want 1 (one warm pass for all four segments)", callsFullBuild)
	}
}
