package core

import (
	"math/rand"
	"testing"
)

// refStoreMap is the semantics oracle: the exact map-based last-store
// tracking the engine used before StoreTable, including the
// clear-past-64K rebuild that drops the just-inserted entry.
type refStoreMap struct {
	m map[uint64]int64
}

func newRefStoreMap() *refStoreMap { return &refStoreMap{m: make(map[uint64]int64)} }

func (r *refStoreMap) Get(key uint64) (int64, bool) {
	v, ok := r.m[key]
	return v, ok
}

func (r *refStoreMap) Put(key uint64, val int64) {
	r.m[key] = val
	if len(r.m) > storeTableClear {
		r.m = make(map[uint64]int64)
	}
}

// storeKeys mixes the address patterns the engine actually sees: dense
// strides (array scans), a hot working set, and sparse pointer chasing.
func storeKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch rng.Intn(3) {
		case 0:
			keys[i] = uint64(i) * 8 // strided
		case 1:
			keys[i] = uint64(rng.Intn(1 << 10)) // hot set
		default:
			keys[i] = rng.Uint64() >> 16 // sparse
		}
	}
	return keys
}

// TestStoreTableMatchesMap drives table and reference map with an
// identical operation stream — long enough to cross the clear threshold
// several times — and demands identical observable behaviour.
func TestStoreTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	table := NewStoreTable()
	ref := newRefStoreMap()

	const ops = 1_200_000 // ~300k distinct-key inserts: several clears
	keys := storeKeys(rng, ops)
	for i, key := range keys {
		if rng.Intn(4) == 0 {
			table.Put(key, int64(i))
			ref.Put(key, int64(i))
			continue
		}
		gv, gok := table.Get(key)
		wv, wok := ref.Get(key)
		if gok != wok || (gok && gv != wv) {
			t.Fatalf("op %d key %#x: table (%d,%t), map (%d,%t)", i, key, gv, gok, wv, wok)
		}
	}
	if table.Len() != len(ref.m) {
		t.Errorf("table holds %d keys, map holds %d", table.Len(), len(ref.m))
	}
}

// TestStoreTableClear pins the clear boundary exactly: inserting distinct
// keys up to the threshold keeps them all; one more wipes everything,
// including the key that triggered the clear.
func TestStoreTableClear(t *testing.T) {
	table := NewStoreTable()
	for i := 0; i < storeTableClear; i++ {
		table.Put(uint64(i), int64(i))
	}
	if table.Len() != storeTableClear {
		t.Fatalf("table holds %d keys at the threshold, want %d", table.Len(), storeTableClear)
	}
	if v, ok := table.Get(0); !ok || v != 0 {
		t.Fatalf("key 0 = (%d,%t) before clear, want (0,true)", v, ok)
	}
	table.Put(uint64(storeTableClear), 99)
	if table.Len() != 0 {
		t.Errorf("table holds %d keys after clear, want 0", table.Len())
	}
	if _, ok := table.Get(uint64(storeTableClear)); ok {
		t.Error("clear-triggering key survived; the old map dropped it too")
	}
	// Updating an existing key must never trigger a clear.
	table.Put(7, 1)
	for i := 0; i < 3; i++ {
		table.Put(7, int64(i))
	}
	if v, ok := table.Get(7); !ok || v != 2 {
		t.Errorf("key 7 = (%d,%t), want (2,true)", v, ok)
	}
}

// benchStoreOps is one mixed Get/Put pass over a prepared key schedule,
// shared by both benchmark variants.
const benchOps = 1 << 16

func benchKeys() []uint64 {
	return storeKeys(rand.New(rand.NewSource(7)), benchOps)
}

// BenchmarkLastStoreMap measures the built-in map the engine used before.
func BenchmarkLastStoreMap(b *testing.B) {
	keys := benchKeys()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ref := newRefStoreMap()
		var sink int64
		for i, key := range keys {
			if i&3 == 0 {
				ref.Put(key, int64(i))
			} else if v, ok := ref.Get(key); ok {
				sink += v
			}
		}
		_ = sink
	}
}

// BenchmarkStoreTable measures the open-addressed replacement on the same
// schedule.
func BenchmarkStoreTable(b *testing.B) {
	keys := benchKeys()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		table := NewStoreTable()
		var sink int64
		for i, key := range keys {
			if i&3 == 0 {
				table.Put(key, int64(i))
			} else if v, ok := table.Get(key); ok {
				sink += v
			}
		}
		_ = sink
	}
}

// TestStoreTableSizedMatchesFull drives a table sized for n keys and a
// full-size table with one random operation stream that passes n
// distinct keys (forcing regrowth) and, for the long streams, the 64K
// clear: both must give the same Get answers and hold the same count
// throughout. The starting size is only a hint.
func TestStoreTableSizedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int64{1, 100, 1_000, 5_000, 40_000, storeTableClear} {
		sized, full := storeTableFor(n), NewStoreTable()
		want := 1 << storeTableMinBits
		for int64(want) < 2*n {
			want <<= 1
		}
		if len(sized.slots) != want {
			t.Fatalf("n=%d: table starts at %d slots, want %d", n, len(sized.slots), want)
		}
		ops := 16 * want // ~4x the slot count in inserts: regrowth
		if n >= 5_000 {
			ops = 600_000 // ~150k distinct-key inserts: past the clear
		}
		keys := storeKeys(rng, ops)
		for i, key := range keys {
			if rng.Intn(4) == 0 {
				sized.Put(key, int64(i))
				full.Put(key, int64(i))
			} else {
				gv, gok := sized.Get(key)
				wv, wok := full.Get(key)
				if gok != wok || gv != wv {
					t.Fatalf("n=%d op %d key %#x: sized (%d,%t), full (%d,%t)", n, i, key, gv, gok, wv, wok)
				}
			}
			if sized.Len() != full.Len() {
				t.Fatalf("n=%d op %d: sized holds %d keys, full %d", n, i, sized.Len(), full.Len())
			}
		}
		if len(sized.slots) > storeTableSize {
			t.Fatalf("n=%d: table grew to %d slots, past the full size", n, len(sized.slots))
		}
		if want < storeTableSize && len(sized.slots) == want {
			t.Fatalf("n=%d: the stream never regrew the table", n)
		}
	}
	if got := len(storeTableFor(0).slots); got != storeTableSize {
		t.Fatalf("unbounded table has %d slots, want %d", got, storeTableSize)
	}
	if got := len(storeTableFor(storeTableClear + 1).slots); got != storeTableSize {
		t.Fatalf("table past the clear bound has %d slots, want %d", got, storeTableSize)
	}
}
