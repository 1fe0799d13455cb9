package atrace

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// alignedCopy copies b into an 8-byte-aligned buffer, as the mmap and
// heap loaders hand it to streamFromColumnar (its bitset sections are
// viewed as []uint64 in place).
func alignedCopy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(b))
	copy(out, b)
	return out
}

// FuzzOpenColumnar feeds arbitrary bytes to the MLPCOLS1 body decoder
// that every spill segment goes through. The contract under fuzz: never
// panic; either the bytes decode into a stream that replays exactly its
// promised length, or the error wraps ErrCorruptSpill.
func FuzzOpenColumnar(f *testing.F) {
	w := workload.Presets(31)[0]
	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(1_000)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, Capture(a, 300)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(colMagic))
	f.Add(valid[:colHeaderMin])
	f.Add(valid[:len(valid)/2])             // truncated mid-body
	f.Add(append(bytes.Clone(valid), 0xff)) // trailing garbage breaks the size check
	for _, off := range []int{8, 12, 16, 24, 32, 40, 44, colHeaderMin, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x5a
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := streamFromColumnar(alignedCopy(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptSpill) {
				t.Fatalf("decode failed with a non-corruption error: %v", err)
			}
			return
		}
		// The bytes passed every structural check and the checksum (the
		// untouched seed, or a mutation the CRC could not distinguish).
		// The stream must then actually replay.
		r := s.Replay()
		var inst annotate.Inst
		var n int64
		for r.NextInto(&inst) {
			n++
		}
		if n != s.Len() {
			t.Fatalf("decoded stream replays %d instructions, promises %d", n, s.Len())
		}
	})
}
