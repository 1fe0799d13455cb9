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
// The table is sized at 2x the clear threshold, so the load factor never
// exceeds 0.5 and probes stay short; no growth path is needed.

const (
	// storeTableClear matches the old map's bound: a table exceeding this
	// many distinct keys is cleared.
	storeTableClear = 1 << 16
	storeTableBits  = 17
	storeTableSize  = 1 << storeTableBits
	storeTableMask  = storeTableSize - 1
)

// StoreTable is the open-addressed last-store map. The zero value is not
// usable; call NewStoreTable.
type StoreTable struct {
	// slots interleaves each key with its value, so a probe that hits
	// touches one cache line, not one per column: the table is far larger
	// than the caches, and every load's lookup lands on a random slot.
	slots []storeEntry
	used  int
}

// storeEntry holds key+1 so the zero value means an empty slot. Keys are
// EA>>3, so key+1 cannot wrap.
type storeEntry struct {
	key uint64
	val int64
}

// NewStoreTable returns an empty table.
func NewStoreTable() *StoreTable {
	return &StoreTable{slots: make([]storeEntry, storeTableSize)}
}

// storeSlot is a Fibonacci hash: store addresses are heavily strided, and
// the multiply spreads consecutive keys across the table.
func storeSlot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - storeTableBits) & storeTableMask
}

// Get returns the last-store index recorded for key.
func (t *StoreTable) Get(key uint64) (int64, bool) {
	k := key + 1
	for i := storeSlot(key); ; i = (i + 1) & storeTableMask {
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
	for i := storeSlot(key); ; i = (i + 1) & storeTableMask {
		switch e := &t.slots[i]; e.key {
		case k:
			e.val = val
			return
		case 0:
			e.key, e.val = k, val
			t.used++
			if t.used > storeTableClear {
				t.clear()
			}
			return
		}
	}
}

func (t *StoreTable) clear() {
	clear(t.slots)
	t.used = 0
}

// Len returns the number of distinct keys held.
func (t *StoreTable) Len() int { return t.used }
