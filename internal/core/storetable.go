package core

// StoreTable maps 8-byte-aligned store addresses (EA>>3) to the absolute
// index of the most recent store, replacing the built-in map on the fetch
// hot path (~17% of cached-replay engine time went to map lookups). It is
// an open-addressed, linear-probing table with the exact clear-at-64K
// semantics of the map it replaces: once an insert pushes the number of
// distinct keys past storeTableClear, the whole table resets and stale
// producers resolve as retired — identical to the old
// `lastStore = make(map[uint64]int64)` rebuild, so simulated results are
// bit-for-bit unchanged. Both the epoch-model engine and the cycle
// simulator use it for store-to-load memory dependences.
//
// The load factor never exceeds 0.5, so probes stay short. A table may
// start small (storeTableFor) and doubles whenever an insert would
// cross half its size, up to storeTableSize slots — 2x the clear
// threshold, where crossing half the size is exactly the clear. The
// starting size is only a hint: answers never depend on it.

const (
	// storeTableClear matches the old map's bound: a table exceeding this
	// many distinct keys is cleared.
	storeTableClear = 1 << 16
	storeTableBits  = 17
	storeTableSize  = 1 << storeTableBits
	// storeTableMinBits is the smallest table storeTableFor builds.
	storeTableMinBits = 10
)

// StoreTable is the open-addressed last-store map. The zero value is not
// usable; call NewStoreTable.
type StoreTable struct {
	// slots interleaves each key with its value, so a probe that hits
	// touches one cache line, not one per column: a full-size table is
	// far larger than the caches, and every load's lookup lands on a
	// random slot.
	slots []storeEntry
	mask  uint64
	shift uint
	used  int
}

// storeEntry holds key+1 so the zero value means an empty slot. Keys are
// EA>>3, so key+1 cannot wrap.
type storeEntry struct {
	key uint64
	val int64
}

// NewStoreTable returns an empty full-size table.
func NewStoreTable() *StoreTable { return newStoreTable(storeTableBits) }

func newStoreTable(bits uint) *StoreTable {
	t := &StoreTable{}
	t.reset(bits)
	return t
}

// reset makes t an empty table of 1<<bits slots.
func (t *StoreTable) reset(bits uint) {
	t.slots = make([]storeEntry, 1<<bits)
	t.mask = 1<<bits - 1
	t.shift = 64 - bits
	t.used = 0
}

// storeTableFor returns an empty table sized for at most maxKeys
// distinct keys — the smallest power of two >= 2*maxKeys slots, at least
// 1024 — or the full size when maxKeys is 0 or past the clear threshold.
// More keys than the hint only cost a regrowth.
func storeTableFor(maxKeys int64) *StoreTable {
	if maxKeys <= 0 || maxKeys > storeTableClear {
		return NewStoreTable()
	}
	bits := uint(storeTableMinBits)
	for int64(1)<<bits < 2*maxKeys {
		bits++
	}
	return newStoreTable(bits)
}

// slot is a Fibonacci hash: store addresses are heavily strided, and
// the multiply spreads consecutive keys across the table.
func (t *StoreTable) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift & t.mask
}

// Get returns the last-store index recorded for key.
func (t *StoreTable) Get(key uint64) (int64, bool) {
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch e := &t.slots[i]; e.key {
		case k:
			return e.val, true
		case 0:
			return 0, false
		}
	}
}

// Put records val as the most recent store to key, clearing the table
// when it would exceed storeTableClear distinct keys (matching the old
// map semantics, which also dropped the just-inserted entry).
func (t *StoreTable) Put(key uint64, val int64) {
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch e := &t.slots[i]; e.key {
		case k:
			e.val = val
			return
		case 0:
			e.key, e.val = k, val
			t.used++
			if t.used > len(t.slots)/2 {
				if len(t.slots) < storeTableSize {
					t.grow()
				} else {
					t.clear()
				}
			}
			return
		}
	}
}

// grow doubles the table, re-placing every entry.
func (t *StoreTable) grow() {
	old := t.slots
	t.reset(64 - t.shift + 1)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := t.slot(e.key - 1)
		for t.slots[i].key != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = e
		t.used++
	}
}

func (t *StoreTable) clear() {
	clear(t.slots)
	t.used = 0
}

// Len returns the number of distinct keys held.
func (t *StoreTable) Len() int { return t.used }
