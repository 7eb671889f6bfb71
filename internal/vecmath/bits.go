package vecmath

import "encoding/binary"

// Bulk bit packing shared by the quantizers and the wire format. Heads and
// tails are bit-addressed regions inside a packet payload: fixed-width
// fields laid out MSB-within-byte first (network-friendly, so a truncated
// byte stream still yields a readable bit prefix). PackBits writes a whole
// region in one call and UnpackBits reads one back; both move bits through
// a 64-bit accumulator with 32-bit big-endian stores and loads, so the cost
// per field is a shift and an or rather than a byte loop.

// PackBits writes the low width bits of each vals[i], most significant bit
// first, as one contiguous bit stream at the start of dst, and returns the
// number of bytes written, (len(vals)*width+7)/8. Unused low bits of the
// last byte are zero. Every byte in dst[:n] is stored, never OR-ed, so dst
// may hold stale data (a recycled packet buffer). It panics if width is
// outside [0, 32] or dst is shorter than n; width 0 writes nothing.
func PackBits(dst []byte, vals []uint32, width int) int {
	if width < 0 || width > 32 {
		panic("vecmath: PackBits width out of range")
	}
	n := (len(vals)*width + 7) / 8
	if len(dst) < n {
		panic("vecmath: PackBits destination too short")
	}
	if width == 0 {
		return 0
	}
	dst = dst[:n]
	mask := uint64(1)<<uint(width) - 1
	// acc holds nacc pending bits in its low end (bits above them are
	// already-stored leftovers, shifted out or ignored). nacc < 32 before
	// each field, so nacc+width never exceeds 63.
	var acc uint64
	nacc, o := 0, 0
	for _, v := range vals {
		acc = acc<<uint(width) | uint64(v)&mask
		nacc += width
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(dst[o:], uint32(acc>>uint(nacc)))
			o += 4
		}
	}
	for ; nacc >= 8; o++ {
		nacc -= 8
		dst[o] = byte(acc >> uint(nacc))
	}
	if nacc > 0 {
		dst[o] = byte(acc << uint(8-nacc))
	}
	return n
}

// UnpackBits reads len(dst) fields of width bits each, most significant
// bit first, from the start of src: the inverse of PackBits. It panics if
// width is outside [0, 32] or src holds fewer than len(dst)*width bits, and
// never reads a byte past that prefix, so a caller may size dst to what a
// truncated src still holds. Width 0 fills dst with zeros.
func UnpackBits(dst []uint32, src []byte, width int) {
	if width < 0 || width > 32 {
		panic("vecmath: UnpackBits width out of range")
	}
	if len(dst)*width > len(src)*8 {
		panic("vecmath: UnpackBits source too short")
	}
	if width == 0 {
		clear(dst)
		return
	}
	mask := uint64(1)<<uint(width) - 1
	// acc holds nacc unread bits in its low end; a refill happens only when
	// nacc < width <= 32, so a 32-bit load never overflows it. Near the end
	// of src the refill falls back to single bytes, which the length check
	// above keeps in bounds.
	var acc uint64
	nacc, o := 0, 0
	for i := range dst {
		if nacc < width {
			if o+4 <= len(src) {
				acc = acc<<32 | uint64(binary.BigEndian.Uint32(src[o:]))
				o += 4
				nacc += 32
			} else {
				for nacc < width {
					acc = acc<<8 | uint64(src[o])
					o++
					nacc += 8
				}
			}
		}
		nacc -= width
		dst[i] = uint32(acc >> uint(nacc) & mask)
	}
}
