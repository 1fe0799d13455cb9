package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"mlpsim/internal/isa"
)

func sampleInsts(n int, seed int64) []isa.Inst {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]isa.Inst, n)
	pc := uint64(0x10000)
	for i := range insts {
		var in isa.Inst
		in.PC = pc
		switch rng.Intn(6) {
		case 0:
			in.Class = isa.Load
			in.Src1 = isa.Reg(rng.Intn(32))
			in.Src2 = isa.NoReg
			in.Dst = isa.Reg(1 + rng.Intn(31))
			in.EA = uint64(rng.Int63n(1 << 40))
			in.Value = rng.Uint64() >> uint(rng.Intn(64))
		case 1:
			in.Class = isa.Store
			in.Src1 = isa.Reg(rng.Intn(32))
			in.Src2 = isa.Reg(rng.Intn(32))
			in.Dst = isa.NoReg
			in.EA = uint64(rng.Int63n(1 << 40))
		case 2:
			in.Class = isa.Branch
			in.Src1 = isa.Reg(rng.Intn(32))
			in.Src2 = isa.NoReg
			in.Dst = isa.NoReg
			in.Taken = rng.Intn(2) == 0
			in.Target = pc + uint64(rng.Intn(4096))*4 - 2048*4
		case 3:
			in.Class = isa.MemBar
			in.Src1, in.Src2, in.Dst = isa.NoReg, isa.NoReg, isa.NoReg
		case 4:
			in.Class = isa.Prefetch
			in.Src1 = isa.Reg(rng.Intn(32))
			in.Src2, in.Dst = isa.NoReg, isa.NoReg
			in.EA = uint64(rng.Int63n(1 << 40))
		default:
			in.Class = isa.ALU
			in.Src1 = isa.Reg(rng.Intn(32))
			in.Src2 = isa.Reg(rng.Intn(32))
			in.Dst = isa.Reg(1 + rng.Intn(31))
		}
		insts[i] = in
		if rng.Intn(8) == 0 {
			pc = uint64(rng.Int63n(1 << 30))
		} else {
			pc += 4
		}
	}
	return insts
}

func TestSliceSource(t *testing.T) {
	insts := sampleInsts(10, 1)
	src := NewSliceSource(insts)
	if src.Len() != 10 {
		t.Fatalf("Len = %d, want 10", src.Len())
	}
	for i := 0; i < 10; i++ {
		in, ok := src.Next()
		if !ok {
			t.Fatalf("Next #%d: unexpected end", i)
		}
		if in != insts[i] {
			t.Fatalf("Next #%d = %v, want %v", i, in, insts[i])
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next past end should report !ok")
	}
	src.Reset()
	if in, ok := src.Next(); !ok || in != insts[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestLimit(t *testing.T) {
	insts := sampleInsts(100, 2)
	src := NewSliceSource(insts)
	if n := len(Collect(Limit(src, 30), -1)); n != 30 {
		t.Fatalf("first limit collected %d, want 30", n)
	}
	// A second limit continues where the first stopped.
	got := Collect(Limit(src, 50), -1)
	if len(got) != 50 {
		t.Fatalf("collected %d, want 50", len(got))
	}
	if got[0] != insts[30] {
		t.Fatalf("first after the first limit = %v, want %v", got[0], insts[30])
	}
	// A limit past the end stops with the stream.
	if n := len(Collect(Limit(NewSliceSource(insts[:5]), 10), -1)); n != 5 {
		t.Fatalf("limit past end collected %d, want 5", n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insts := sampleInsts(5000, 7)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, uint64(len(insts)))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		if err := enc.Encode(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if enc.Count() != int64(len(insts)) {
		t.Fatalf("encoded count = %d", enc.Count())
	}

	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.CountHint() != uint64(len(insts)) {
		t.Fatalf("count hint = %d", dec.CountHint())
	}
	for i, want := range insts {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		// Prefetch value and non-branch targets are not round-tripped;
		// normalize those before comparing.
		norm := want
		if !norm.Class.IsMemRead() || norm.Class == isa.Prefetch {
			norm.Value = 0
		}
		if norm.Class != isa.Branch {
			norm.Target = 0
		}
		if got != norm {
			t.Fatalf("decode #%d = %+v, want %+v", i, got, norm)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("decode past end = %v, want io.EOF", err)
	}
}

func TestReaderSource(t *testing.T) {
	insts := sampleInsts(100, 8)
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, 0)
	for _, in := range insts {
		if err := enc.Encode(in); err != nil {
			t.Fatal(err)
		}
	}
	enc.Flush()

	rs, err := NewReaderSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(rs, -1)
	if len(got) != 100 {
		t.Fatalf("read %d instructions, want 100", len(got))
	}
	if rs.Err() != nil {
		t.Fatalf("clean stream reported error %v", rs.Err())
	}
}

func TestDecoderRejectsCorruptHeader(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Right magic, wrong version.
	raw := append([]byte(magic), 99, 0)
	if _, err := NewDecoder(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version accepted")
	}
	// Truncated header.
	if _, err := NewDecoder(bytes.NewReader([]byte(magic[:3]))); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestDecoderRejectsTruncatedRecord(t *testing.T) {
	insts := sampleInsts(10, 9)
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, 0)
	for _, in := range insts {
		enc.Encode(in)
	}
	enc.Flush()
	raw := buf.Bytes()

	// Chop the stream mid-record and check we get a hard error, not EOF,
	// on some prefix (the first record starts right after the header).
	hdr := len(magic) + 1 + 1 // magic + version + 1-byte uvarint hint (0)
	sawCorrupt := false
	for cut := hdr + 1; cut < len(raw); cut++ {
		dec, err := NewDecoder(bytes.NewReader(raw[:cut]))
		if err != nil {
			continue
		}
		for {
			_, err = dec.Decode()
			if err != nil {
				break
			}
		}
		if err != io.EOF {
			sawCorrupt = true
			break
		}
	}
	if !sawCorrupt {
		t.Fatal("no truncation point produced a corruption error")
	}
}

func TestDecoderRejectsInvalidClass(t *testing.T) {
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, 0)
	enc.Encode(isa.Inst{Class: isa.ALU, Src1: 1, Src2: 2, Dst: 3, PC: 4})
	enc.Flush()
	raw := buf.Bytes()
	// The class byte of the first record is right after flags.
	hdr := len(magic) + 1 + 1
	raw[hdr+1] = 200
	dec, err := NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); err == nil {
		t.Fatal("invalid class accepted")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encode→decode is the identity on the normalized instruction
// space, for arbitrary generated traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		insts := sampleInsts(n, seed)
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, 0)
		if err != nil {
			return false
		}
		for _, in := range insts {
			if err := enc.Encode(in); err != nil {
				return false
			}
		}
		if err := enc.Flush(); err != nil {
			return false
		}
		dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for _, want := range insts {
			got, err := dec.Decode()
			if err != nil {
				return false
			}
			if got.PC != want.PC || got.Class != want.Class || got.EA != want.EA ||
				got.Src1 != want.Src1 || got.Src2 != want.Src2 || got.Dst != want.Dst ||
				got.Taken != want.Taken {
				return false
			}
		}
		_, err = dec.Decode()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
