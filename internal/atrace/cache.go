package atrace

import (
	"container/list"
	"errors"
	"sync"
	"time"

	"mlpsim/internal/annotate"
)

// DefaultCapBytes is the default in-memory cache capacity. A Default-scale
// (8M instruction) stream is roughly 100MB, so this holds the handful of
// distinct annotation configurations a full experiment batch touches.
// Memory-mapped streams account almost nothing against it: their columns
// live in the OS page cache, not the Go heap.
const DefaultCapBytes = 8 << 30

// Cache is a keyed store of annotated traces with single-flight build
// deduplication: concurrent GetTrace calls for the same key block on one
// build instead of annotating in parallel. Eviction is LRU by approximate
// byte footprint; evicted traces stay valid for replays already in flight
// (they are immutable), the cache merely drops its reference.
//
// Every miss is one segmented capture (CaptureSegmented) with its
// geometry derived from where the trace goes. In memory it is a single
// segment, served as its *Stream. With Dir set, the directory becomes a
// cache shared across processes: a miss memory-maps the spill when one
// exists (replay then reads pages from the OS page cache rather than
// resident heap); otherwise it captures spillSegmentInsts-instruction
// segments and publishes them as an MLPCOLS2 manifest plus per-segment
// files. Builders coordinate through per-key file locks so N concurrent
// processes perform exactly one annotation pass per key. Publication is
// atomic (temp file + rename), corrupt or truncated spills are
// quarantined and rebuilt, and an on-disk index drives byte-cap LRU
// eviction of the directory. See diskCache for the layout and protocol.
type Cache struct {
	mu         sync.Mutex
	capBytes   int64
	size       int64
	disk       *diskCache
	entries    map[Key]*entry
	order      *list.List // front = most recently used
	leaseOwner string
	leaseTTL   time.Duration

	hits     uint64
	misses   uint64
	builds   uint64
	diskHits uint64
}

type entry struct {
	key   Key
	ready chan struct{} // closed when trace (or panic) is set
	trace Trace
	pval  any // panic value propagated to waiters
	elem  *list.Element
	bytes int64
}

// NewCache returns an in-memory cache with DefaultCapBytes capacity.
func NewCache() *Cache {
	return &Cache{
		capBytes: DefaultCapBytes,
		entries:  make(map[Key]*entry),
		order:    list.New(),
	}
}

// SetDir enables the shared on-disk cache rooted at dir (created on
// first write). An empty dir disables it.
func (c *Cache) SetDir(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dir == "" {
		c.disk = nil
		return
	}
	c.disk = newDiskCache(dir)
	c.disk.leaseOwner = c.leaseOwner
	c.disk.leaseTTL = c.leaseTTL
}

// SetLease switches cross-process build coordination from flock to
// cross-host lease files: owner identifies this process in lease
// records (must be unique across all processes sharing the directory —
// e.g. the daemon's peer id), ttl is the lease expiry renewed by live
// builders. An empty owner restores flock coordination. Order with
// SetDir does not matter.
func (c *Cache) SetLease(owner string, ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if owner != "" && ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c.leaseOwner = owner
	c.leaseTTL = ttl
	if c.disk != nil {
		c.disk.leaseOwner = owner
		if ttl > 0 {
			c.disk.leaseTTL = ttl
		}
	}
}

// SetDiskCapBytes bounds the spill directory's total size (<= 0 means
// unbounded); least-recently-used spills are evicted at publish time.
// Takes effect only after SetDir.
func (c *Cache) SetDiskCapBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk != nil {
		c.disk.capBytes = n
	}
}

// Stats reports cache effectiveness counters.
type CacheStats struct {
	Hits          uint64 // GetTrace calls served from memory (or by joining a build)
	Misses        uint64 // GetTrace calls that had to build or load
	Builds        uint64 // annotation passes actually executed
	DiskHits      uint64 // misses served from the on-disk spill
	Quarantined   uint64 // corrupt spill files moved aside
	DiskEvictions uint64 // spill files evicted for directory capacity
	Swept         uint64 // litter files reclaimed by the directory sweep
	SegEvictions  uint64 // individual segments evicted under the byte cap
	SegRebuilds   uint64 // evicted segments rebuilt on demand
	LeasesTaken   uint64 // cross-host build leases acquired
	LeasesStolen  uint64 // expired leases reclaimed from dead owners
	Bytes         int64  // current in-memory footprint
	Streams       int    // traces currently held
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits: c.hits, Misses: c.misses, Builds: c.builds, DiskHits: c.diskHits,
		Bytes: c.size, Streams: len(c.entries),
	}
	if c.disk != nil {
		st.Quarantined = c.disk.quarantined.Load()
		st.DiskEvictions = c.disk.evictions.Load()
		st.Swept = c.disk.swept.Load()
		st.SegEvictions = c.disk.segEvictions.Load()
		st.SegRebuilds = c.disk.segRebuilds.Load()
		st.LeasesTaken = c.disk.leasesAcquired.Load()
		st.LeasesStolen = c.disk.leasesStolen.Load()
	}
	return st
}

// BuildSpec tells the cache how to reconstruct the annotation pass for a
// key, so a build (or the rebuild of evicted segments) can start a fresh
// annotator and warm it over the prefix before the segments it captures.
type BuildSpec struct {
	// NewAnnotator returns a fresh, unwarmed annotator at instruction 0;
	// it must be safe to call concurrently.
	NewAnnotator func() *annotate.Annotator
	// Warmup and Measure fix the captured window, matching the key.
	Warmup, Measure int64
}

// GetTrace returns the trace for key, building it from spec exactly once
// per key no matter how many goroutines ask concurrently — and, with a
// cache directory set, exactly once across processes too. A panic in
// the build is propagated to every waiter and the entry is removed so a
// later GetTrace can retry.
func (c *Cache) GetTrace(key Key, spec BuildSpec) Trace {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.pval != nil {
			panic(e.pval)
		}
		return e.trace
	}
	e := &entry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	disk := c.disk
	c.mu.Unlock()

	var t Trace
	var fromDisk bool
	func() {
		defer func() {
			if pv := recover(); pv != nil {
				e.pval = pv
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
				close(e.ready)
				panic(pv)
			}
		}()
		t, fromDisk = obtain(disk, key, spec)
	}()

	e.trace = t
	e.bytes = t.MemBytes()
	c.mu.Lock()
	if fromDisk {
		c.diskHits++
	} else {
		c.builds++
	}
	e.elem = c.order.PushFront(e)
	c.size += e.bytes
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return t
}

// obtain resolves one cache miss. Without a directory it captures the
// window in memory as one segment. With one it loads the spill when
// present; otherwise, under the per-key cross-process lock, it fills the
// holes of a partly evicted spill or captures the whole window into a
// fresh one, publishing each segment as it completes.
func obtain(disk *diskCache, key Key, spec BuildSpec) (t Trace, fromDisk bool) {
	seg := SegSpec{NewAnnotator: spec.NewAnnotator, Warmup: spec.Warmup, Measure: spec.Measure, Workers: 1}
	if disk == nil {
		return waitTrace(CaptureSegmented(seg)), false
	}
	hash := keyHash(key)
	if loaded, err := disk.load(hash); err == nil {
		return loaded, true
	}
	unlock, err := disk.lockKey(hash)
	if err != nil {
		// Lock machinery unavailable (read-only dir, ...): degrade to an
		// uncoordinated in-memory build.
		return waitTrace(CaptureSegmented(seg)), false
	}
	defer unlock()
	// Another process may have published while we waited for the lock.
	loaded, lerr := disk.load(hash)
	if lerr == nil {
		return loaded, true
	}
	var see *SegmentsEvictedError
	if errors.As(lerr, &see) {
		// Rebuild only the evicted segments in place; counted as a build
		// (annotation work ran), with SegRebuilds recording how little.
		if t, rerr := disk.rebuildSegments(hash, key, spec, see.Missing); rerr == nil {
			return t, false
		}
		// The holes cannot be filled (spec drifted from the manifest,
		// disk trouble): fall back to a clean full rebuild.
		disk.quarantine(hash)
	}
	seg.SegmentInsts = disk.segInsts
	p := CaptureSegmentedToFile(disk.spillPath(hash), seg)
	t = waitTrace(p)
	// A publish failure (disk full, ...) leaves no manifest behind; the
	// heap-backed trace is still good, it just is not shared on disk.
	if p.PublishErr() == nil {
		disk.recordPublished(hash, key, disk.spillBytes(hash))
	}
	return t, false
}

// waitTrace waits for a capture and returns its trace, panicking on a
// capture error so the single-flight build fails for every waiter.
func waitTrace(p *PendingCapture) Trace {
	ss, err := p.Wait()
	if err != nil {
		panic(err)
	}
	return ss.trace()
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its capacity. Entries still building are never evicted (they are
// not in the LRU list yet).
func (c *Cache) evictLocked() {
	if c.capBytes <= 0 {
		return
	}
	for c.size > c.capBytes && c.order.Len() > 1 {
		back := c.order.Back()
		e := back.Value.(*entry)
		c.order.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.size -= e.bytes
	}
}
