package vecmath

import (
	"bytes"
	"testing"
	"testing/quick"

	"trimgrad/internal/xrand"
)

// bitWriter and bitReader are the bit-at-a-time reference for PackBits and
// UnpackBits: one bit per step, MSB-within-byte first, with no word
// tricks to get wrong. The bulk kernels must agree with them byte for byte
// and value for value.

// bitWriter accumulates a bit stream into a byte slice. The zero value is
// an empty writer ready for use.
type bitWriter struct {
	buf  []byte
	nBit int
}

func (w *bitWriter) WriteBit(b uint) {
	if w.nBit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b&1 != 0 {
		w.buf[w.nBit/8] |= 1 << uint(7-w.nBit%8)
	}
	w.nBit++
}

// WriteBits appends the low width bits of v, most significant bit first.
// It panics if width is outside [0, 64].
func (w *bitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic("bitWriter: width out of range")
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i)))
	}
}

func (w *bitWriter) Len() int      { return w.nBit }
func (w *bitWriter) Bytes() []byte { return w.buf }
func (w *bitWriter) Reset()        { w.buf, w.nBit = w.buf[:0], 0 }

// bitReader consumes a bit stream produced by bitWriter.
type bitReader struct {
	buf  []byte
	pos  int
	nBit int
}

// newBitReader exposes nBits bits of buf; a negative or too-large nBits
// means all of buf.
func newBitReader(buf []byte, nBits int) *bitReader {
	if nBits < 0 || nBits > len(buf)*8 {
		nBits = len(buf) * 8
	}
	return &bitReader{buf: buf, nBit: nBits}
}

// ReadBit returns the next bit, or (0, false) when exhausted.
func (r *bitReader) ReadBit() (uint, bool) {
	if r.pos >= r.nBit {
		return 0, false
	}
	b := uint(r.buf[r.pos/8]>>uint(7-r.pos%8)) & 1
	r.pos++
	return b, true
}

// ReadBits returns the next width bits as an MSB-first integer, or
// (0, false) without consuming anything if fewer than width bits remain.
// It panics if width is outside [0, 64].
func (r *bitReader) ReadBits(width int) (uint64, bool) {
	if width < 0 || width > 64 {
		panic("bitReader: width out of range")
	}
	if r.pos+width > r.nBit {
		return 0, false
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, _ := r.ReadBit()
		v = v<<1 | uint64(b)
	}
	return v, true
}

func (r *bitReader) Remaining() int { return r.nBit - r.pos }

// refPack packs vals at width through the reference writer.
func refPack(vals []uint32, width int) []byte {
	var w bitWriter
	for _, v := range vals {
		w.WriteBits(uint64(v), width)
	}
	return w.Bytes()
}

func randomVals(rng *xrand.Rand, n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(rng.Uint64())
	}
	return vals
}

func masked(vals []uint32, width int) []uint32 {
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = uint32(uint64(v) & (1<<uint(width) - 1))
	}
	return out
}

func TestBitRoundTripSingleBits(t *testing.T) {
	var w bitWriter
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := newBitReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, ok := r.ReadBit()
		if !ok || got != want {
			t.Fatalf("bit %d: got (%d,%v), want %d", i, got, ok, want)
		}
	}
	if _, ok := r.ReadBit(); ok {
		t.Fatal("read past end should fail")
	}
	// PackBits at width 1 lays the same bits out identically.
	vals := make([]uint32, len(pattern))
	for i, b := range pattern {
		vals[i] = uint32(b)
	}
	dst := make([]byte, 2)
	if n := PackBits(dst, vals, 1); n != 2 || !bytes.Equal(dst, w.Bytes()) {
		t.Fatalf("PackBits width 1 = %x (n=%d), want %x", dst, n, w.Bytes())
	}
	got := make([]uint32, len(pattern))
	UnpackBits(got, dst, 1)
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("UnpackBits width 1: [%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestBitRoundTripFields(t *testing.T) {
	var w bitWriter
	w.WriteBits(0x5, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(1, 1)
	w.WriteBits(0xFFFFFFFFFFFFFFFF, 64)
	r := newBitReader(w.Bytes(), w.Len())
	if v, ok := r.ReadBits(3); !ok || v != 0x5 {
		t.Fatalf("field1 = %x, %v", v, ok)
	}
	if v, ok := r.ReadBits(16); !ok || v != 0xABCD {
		t.Fatalf("field2 = %x, %v", v, ok)
	}
	if v, ok := r.ReadBits(1); !ok || v != 1 {
		t.Fatalf("field3 = %x, %v", v, ok)
	}
	if v, ok := r.ReadBits(64); !ok || v != 0xFFFFFFFFFFFFFFFF {
		t.Fatalf("field4 = %x, %v", v, ok)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
	// The bulk kernels at the wire's widths: 16-bit heads and 32-bit
	// tails with every bit set, plus a value wider than its field.
	for _, width := range []int{16, 32} {
		vals := []uint32{0xABCD, 0xFFFFFFFF, 0x12345678}
		dst := make([]byte, len(vals)*width/8)
		PackBits(dst, vals, width)
		got := make([]uint32, len(vals))
		UnpackBits(got, dst, width)
		for i, want := range masked(vals, width) {
			if got[i] != want {
				t.Fatalf("width %d field %d = %x, want %x", width, i, got[i], want)
			}
		}
	}
}

func TestBitPrefixSurvivesTruncation(t *testing.T) {
	// The property the wire format depends on: trimming the byte stream
	// preserves a readable bit prefix.
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = uint32(i) & 1
	}
	packed := make([]byte, 8)
	PackBits(packed, vals, 1)
	trimmed := packed[:3] // keep 24 bits
	r := newBitReader(trimmed, -1)
	for i := 0; i < 24; i++ {
		got, ok := r.ReadBit()
		if !ok || got != uint(i)&1 {
			t.Fatalf("bit %d after trim: got (%d,%v)", i, got, ok)
		}
	}
	if _, ok := r.ReadBit(); ok {
		t.Fatal("should be exhausted after 24 bits")
	}
	got := make([]uint32, 24)
	UnpackBits(got, trimmed, 1)
	for i, v := range got {
		if v != uint32(i)&1 {
			t.Fatalf("UnpackBits bit %d after trim = %d", i, v)
		}
	}
}

func TestBitWriterReset(t *testing.T) {
	var w bitWriter
	w.WriteBits(0xFF, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBits(0x3, 2)
	if w.Bytes()[0] != 0xC0 {
		t.Fatalf("after reset wrote %x, want 0xC0", w.Bytes()[0])
	}
	// PackBits has no state to reset: packing into a used buffer gives the
	// bytes a fresh one would.
	dst := []byte{0xFF, 0xFF}
	if n := PackBits(dst, []uint32{1, 1}, 1); n != 1 || dst[0] != 0xC0 || dst[1] != 0xFF {
		t.Fatalf("PackBits over used buffer = %x (n=%d), want c0ff", dst, n)
	}
}

func TestReadBitsPastEnd(t *testing.T) {
	r := newBitReader([]byte{0xFF}, 5)
	if _, ok := r.ReadBits(6); ok {
		t.Fatal("ReadBits past declared length should fail")
	}
	if v, ok := r.ReadBits(5); !ok || v != 0x1F {
		t.Fatalf("ReadBits(5) = %x, %v", v, ok)
	}
	// UnpackBits refuses a request its source cannot cover.
	defer func() {
		if recover() == nil {
			t.Error("UnpackBits past the end of src should panic")
		}
	}()
	UnpackBits(make([]uint32, 3), []byte{0xFF}, 3)
}

func TestWidthValidation(t *testing.T) {
	for _, f := range []func(){
		func() { new(bitWriter).WriteBits(0, 65) },
		func() { new(bitWriter).WriteBits(0, -1) },
		func() { newBitReader(nil, 0).ReadBits(65) },
		func() { newBitReader(nil, 0).ReadBits(-1) },
		func() { PackBits(make([]byte, 8), []uint32{1}, 33) },
		func() { PackBits(make([]byte, 8), []uint32{1}, -1) },
		func() { PackBits(make([]byte, 1), []uint32{1, 2}, 8) },
		func() { UnpackBits(make([]uint32, 1), make([]byte, 8), 33) },
		func() { UnpackBits(make([]uint32, 1), make([]byte, 8), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range width or short buffer")
				}
			}()
			f()
		}()
	}
	// Width 0 is a legal, empty region (a packet with no tail bits).
	if n := PackBits(nil, []uint32{7, 7}, 0); n != 0 {
		t.Fatalf("PackBits width 0 wrote %d bytes", n)
	}
	got := []uint32{7, 7}
	UnpackBits(got, nil, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("UnpackBits width 0 = %v, want zeros", got)
	}
}

func TestNegativeNBitsMeansWholeBuffer(t *testing.T) {
	r := newBitReader([]byte{0xAA, 0xBB}, -1)
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
	// Also too-large nBits clamps.
	r2 := newBitReader([]byte{0xAA}, 100)
	if r2.Remaining() != 8 {
		t.Fatalf("Remaining = %d, want 8", r2.Remaining())
	}
}

func TestQuickBitFieldRoundTrip(t *testing.T) {
	r := xrand.New(9)
	f := func(count uint8) bool {
		n := int(count%32) + 1
		widths := make([]int, n)
		vals := make([]uint64, n)
		var w bitWriter
		for i := 0; i < n; i++ {
			widths[i] = r.Intn(64) + 1
			vals[i] = r.Uint64() & ((1 << uint(widths[i])) - 1)
			if widths[i] == 64 {
				vals[i] = r.Uint64()
			}
			w.WriteBits(vals[i], widths[i])
		}
		rd := newBitReader(w.Bytes(), w.Len())
		for i := 0; i < n; i++ {
			got, ok := rd.ReadBits(widths[i])
			if !ok || got != vals[i] {
				return false
			}
		}
		// One bulk region at a random width round-trips as well.
		width := r.Intn(33)
		region := randomVals(r, n)
		packed := make([]byte, (n*width+7)/8)
		PackBits(packed, region, width)
		back := make([]uint32, n)
		UnpackBits(back, packed, width)
		for i, want := range masked(region, width) {
			if back[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriteBitsMatchesBitAtATime drives random (width, values) regions
// through PackBits and the bit-at-a-time reference and requires
// byte-identical output, then reads every region back through UnpackBits
// and the reference reader and requires the original (masked) values.
func TestWriteBitsMatchesBitAtATime(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 400; trial++ {
		width := rng.Intn(33) // 0..32
		vals := randomVals(rng, rng.Intn(200))
		want := refPack(vals, width)
		dst := make([]byte, len(want)+4)
		n := PackBits(dst, vals, width)
		if n != len(want) || !bytes.Equal(dst[:n], want) {
			t.Fatalf("trial %d (width %d, %d vals): PackBits bytes differ\n got %x\nwant %x",
				trial, width, len(vals), dst[:n], want)
		}
		if !bytes.Equal(dst[n:], make([]byte, 4)) {
			t.Fatalf("trial %d: PackBits wrote past its %d bytes: %x", trial, n, dst[n:])
		}
		got := make([]uint32, len(vals))
		UnpackBits(got, want, width)
		r := newBitReader(want, len(vals)*width)
		for i, v := range masked(vals, width) {
			rv, ok := r.ReadBits(width)
			if !ok || uint32(rv) != v {
				t.Fatalf("trial %d: reference read %d = (%x,%v), want %x", trial, i, rv, ok, v)
			}
			if got[i] != v {
				t.Fatalf("trial %d (width %d): field %d = %x, want %x", trial, width, i, got[i], v)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits left over", trial, r.Remaining())
		}
	}
}

// TestReadBitsMatchesBitAtATime cross-checks UnpackBits against the
// reference reader on random byte streams, at random widths and for every
// field count the stream can cover, including counts that leave a ragged
// final byte and sources too short for a 32-bit load.
func TestReadBitsMatchesBitAtATime(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, 1+rng.Intn(40))
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		width := 1 + rng.Intn(32)
		for count := 0; count <= len(buf)*8/width; count++ {
			got := make([]uint32, count)
			UnpackBits(got, buf, width)
			r := newBitReader(buf, -1)
			for i := range got {
				want, _ := r.ReadBits(width)
				if got[i] != uint32(want) {
					t.Fatalf("trial %d: width %d count %d field %d: got %x want %x",
						trial, width, count, i, got[i], want)
				}
			}
		}
	}
}

// TestPackBitsOverStaleBuffer pins the arena-reuse contract: packing into
// a buffer full of stale bytes must produce the same output as packing
// into a fresh one, because every byte PackBits covers is stored, not
// OR-ed into garbage.
func TestPackBitsOverStaleBuffer(t *testing.T) {
	rng := xrand.New(3)
	for width := 1; width <= 13; width++ {
		vals := randomVals(rng, 30)
		dirty := bytes.Repeat([]byte{0xFF}, 64)
		clean := make([]byte, 64)
		nd := PackBits(dirty, vals, width)
		nc := PackBits(clean, vals, width)
		if nd != nc || !bytes.Equal(dirty[:nd], clean[:nc]) {
			t.Fatalf("width %d: stale backing leaked into output:\n got %x\nwant %x", width, dirty[:nd], clean[:nc])
		}
	}
}

// FuzzPackBits checks the bulk kernels against the bit-at-a-time
// reference: over a width from 1 to 32 and arbitrary values, PackBits
// writes exactly the reference bytes and UnpackBits round-trips them; on
// any truncation of the packed bytes, UnpackBits decodes every whole field
// still present without reading past the truncated slice.
func FuzzPackBits(f *testing.F) {
	f.Add(uint8(1), []byte{0xA5, 0x00, 0xFF}, uint16(1))
	f.Add(uint8(31), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(9))
	f.Add(uint8(32), []byte{0xDE, 0xAD, 0xBE, 0xEF}, uint16(3))
	f.Fuzz(func(t *testing.T, w uint8, raw []byte, cut uint16) {
		width := int(w%32) + 1
		vals := make([]uint32, len(raw)/4+len(raw)%4)
		for i := range vals {
			var v uint32
			for j := 0; j < 4 && 4*i+j < len(raw); j++ {
				v = v<<8 | uint32(raw[4*i+j])
			}
			vals[i] = v
		}
		want := refPack(vals, width)
		dst := make([]byte, len(want))
		if n := PackBits(dst, vals, width); n != len(want) || !bytes.Equal(dst, want) {
			t.Fatalf("width %d: PackBits = %x (n=%d), want %x", width, dst[:n], n, want)
		}
		wantVals := masked(vals, width)
		got := make([]uint32, len(vals))
		UnpackBits(got, dst, width)
		for i := range got {
			if got[i] != wantVals[i] {
				t.Fatalf("width %d: round trip field %d = %x, want %x", width, i, got[i], wantVals[i])
			}
		}
		// A cap-limited truncated source: any read past its length panics.
		// Fields past len(vals) would only decode the zero padding.
		k := 0
		if len(dst) > 0 {
			k = int(cut) % (len(dst) + 1)
		}
		src := dst[:k:k]
		part := make([]uint32, min(k*8/width, len(vals)))
		UnpackBits(part, src, width)
		for i := range part {
			if part[i] != wantVals[i] {
				t.Fatalf("width %d, %d bytes: truncated field %d = %x, want %x", width, k, i, part[i], wantVals[i])
			}
		}
	})
}

func benchmarkPackBits(b *testing.B, width int) {
	vals := randomVals(xrand.New(1), 1<<15)
	dst := make([]byte, (len(vals)*width+7)/8)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackBits(dst, vals, width)
	}
}

func benchmarkUnpackBits(b *testing.B, width int) {
	vals := randomVals(xrand.New(1), 1<<15)
	src := make([]byte, (len(vals)*width+7)/8)
	PackBits(src, vals, width)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnpackBits(vals, src, width)
	}
}

func BenchmarkPackBits1bitx32768(b *testing.B)    { benchmarkPackBits(b, 1) }
func BenchmarkPackBits31bitx32768(b *testing.B)   { benchmarkPackBits(b, 31) }
func BenchmarkUnpackBits1bitx32768(b *testing.B)  { benchmarkUnpackBits(b, 1) }
func BenchmarkUnpackBits31bitx32768(b *testing.B) { benchmarkUnpackBits(b, 31) }
