package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"trimgrad/internal/vecmath"
)

// DataPacket is a parsed trimmable data packet: count coordinates' heads,
// and however many leading tails survived trimming.
type DataPacket struct {
	Header
	// Heads holds one head value per carried coordinate (always complete:
	// trimming never removes heads).
	Heads []uint32
	// Tails holds one tail value per carried coordinate; only the first
	// TailCount entries are meaningful.
	Tails []uint32
	// TailCount is how many leading coordinates still have their tails.
	// Equal to int(Count) for an untrimmed packet.
	TailCount int
}

// BuildDataPacket serializes one data packet carrying heads[i] and tails[i]
// (low h.P / h.Q bits respectively) for i in [0, h.Count). The Trimmed flag
// is cleared; both CRCs are computed. The result length is h.FullSize().
func BuildDataPacket(h Header, heads, tails []uint32) ([]byte, error) {
	return BuildDataPacketTo(nil, h, heads, tails)
}

// BuildDataPacketTo is BuildDataPacket drawing its buffer from a (nil a
// means allocate). The returned slice is arena-owned: the caller must
// Put it back exactly once after the last alias — including any trimmed
// re-slice — is gone.
func BuildDataPacketTo(a *Arena, h Header, heads, tails []uint32) ([]byte, error) {
	if int(h.Count) != len(heads) || int(h.Count) != len(tails) {
		return nil, fmt.Errorf("wire: count %d != heads %d / tails %d",
			h.Count, len(heads), len(tails))
	}
	if h.P == 0 || int(h.P)+int(h.Q) > 33 {
		return nil, fmt.Errorf("wire: invalid P=%d Q=%d", h.P, h.Q)
	}
	if h.FullSize() > MaxPayload {
		return nil, fmt.Errorf("wire: packet size %d exceeds MaxPayload %d",
			h.FullSize(), MaxPayload)
	}
	h.Flags &^= FlagTrimmed | FlagMeta | FlagNaive

	// Pack both bit regions straight into the packet buffer: FullSize
	// covers header + heads + tails, and the packet costs at most one
	// allocation (none on an arena hit). Recycled buffers arrive dirty;
	// every byte below is stored, never OR-ed into prior contents.
	buf := a.Get(h.FullSize())
	h.marshal(buf)
	headEnd := HeaderSize + vecmath.PackBits(buf[HeaderSize:], heads, int(h.P))
	buf = buf[:headEnd+vecmath.PackBits(buf[headEnd:], tails, int(h.Q))]

	binary.BigEndian.PutUint32(buf[offHeadCRC:], headerChecksum(buf, buf[HeaderSize:headEnd]))
	binary.BigEndian.PutUint32(buf[offTailCRC:], checksum(buf[headEnd:]))
	return buf, nil
}

// ParseDataPacket decodes a (possibly trimmed) data packet. The head region
// must be complete and pass its CRC; tails are recovered for as many
// leading coordinates as the surviving bytes allow. The tail CRC is only
// verified when the full untrimmed tail region is present.
func ParseDataPacket(buf []byte) (*DataPacket, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.IsMeta() || h.IsNaive() || h.IsAgg() {
		return nil, ErrNotData
	}
	// Reject forged/corrupt geometry before any bit arithmetic: heads are
	// 1..16 bits, tails 0..32 bits per coordinate.
	if h.P < 1 || h.P > 16 || h.Q > 32 {
		return nil, fmt.Errorf("wire: implausible P=%d Q=%d", h.P, h.Q)
	}
	hr := headRegion(buf, &h)
	if hr == nil {
		return nil, fmt.Errorf("%w: head region incomplete", ErrTooShort)
	}
	if headerChecksum(buf, hr) != binary.BigEndian.Uint32(buf[offHeadCRC:]) {
		return nil, fmt.Errorf("%w (head region)", ErrBadChecksum)
	}
	if len(hr)*8 < int(h.P)*int(h.Count) {
		return nil, fmt.Errorf("%w: head bits exhausted", ErrTooShort)
	}

	// Heads and tails share one backing array, cap-limited so an append
	// to Heads cannot run into Tails: a parsed packet costs two
	// allocations, the struct and the values.
	vals := make([]uint32, 2*int(h.Count))
	p := &DataPacket{
		Header: h,
		Heads:  vals[:h.Count:h.Count],
		Tails:  vals[h.Count:],
	}
	vecmath.UnpackBits(p.Heads, hr, int(h.P))

	tailStart := HeaderSize + h.HeadBytes()
	tailBuf := buf[tailStart:min(len(buf), tailStart+h.TailBytes())]
	if h.Q > 0 {
		p.TailCount = len(tailBuf) * 8 / int(h.Q)
		if p.TailCount > int(h.Count) {
			p.TailCount = int(h.Count)
		}
	} else {
		// With no tail bits there is nothing to trim away: every
		// coordinate is complete as soon as its head arrives.
		p.TailCount = int(h.Count)
	}
	// Verify the tail CRC whenever the full tail region survived. A
	// genuinely trimmed packet has its tail CRC zeroed by the switch; a
	// nonzero CRC on a "trimmed" full-length packet means the flag was
	// corrupted in flight, and the stored CRC still convicts the tails.
	tailCRC := binary.BigEndian.Uint32(buf[offTailCRC:])
	if len(tailBuf) == h.TailBytes() && (!h.Trimmed() || tailCRC != 0) {
		if checksum(tailBuf) != tailCRC {
			return nil, fmt.Errorf("%w (tail region)", ErrBadChecksum)
		}
	}
	// Decode only whole tails the surviving bytes hold; UnpackBits panics
	// on a source shorter than its request.
	if len(tailBuf)*8 < p.TailCount*int(h.Q) {
		p.TailCount = len(tailBuf) * 8 / int(h.Q)
	}
	vecmath.UnpackBits(p.Tails[:p.TailCount], tailBuf, int(h.Q))
	return p, nil
}

// checksum computes CRC-32C over b.
func checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// headerChecksum computes CRC-32C over the immutable header bytes followed
// by region. The flags byte is normalized with FlagTrimmed cleared — a
// trimming switch sets that bit in flight, and the CRC must survive the
// rewrite — while FlagMeta/FlagNaive stay covered so a bit flip cannot
// reinterpret a packet as another kind. The CRC fields themselves are
// excluded. Folding the header under the head CRC means a flip in
// Row/Start/Seed/geometry is rejected instead of silently decoding
// coordinates into the wrong place.
func headerChecksum(buf []byte, region []byte) uint32 {
	// The flags byte is normalized through a static lookup table instead of
	// an in-place rewrite: headerChecksum runs on received payloads that may
	// be zero-copy aliases of a sender's stamped arena buffer (DESIGN.md
	// §16), so even a transient write here would race a concurrent
	// retransmit read on another shard. A stack-local copy of the byte is
	// not an option either — crc32's accelerated castagnoli path defeats
	// escape analysis and would heap-allocate on every packet; slicing the
	// package-level table allocates nothing.
	c := crc32.Update(0, castagnoli, buf[:offFlags])
	c = crc32.Update(c, castagnoli, normFlags[buf[offFlags]][:])
	c = crc32.Update(c, castagnoli, buf[offFlags+1:offHeadCRC])
	return crc32.Update(c, castagnoli, region)
}

// normFlags[b] holds b with FlagTrimmed cleared, as a one-byte array so
// headerChecksum can hash the normalized flags byte without writing to the
// packet or allocating.
var normFlags = func() (t [256][1]byte) {
	for i := range t {
		t[i][0] = byte(i) &^ FlagTrimmed
	}
	return t
}()

// Trim performs the switch-side trim operation on a raw packet buffer,
// returning the trimmed packet (a re-sliced view of buf with the Trimmed
// flag set). Metadata packets are returned unchanged — the paper's design
// keeps them reliable. Naive packets are cut to targetSize (but never below
// the header). Data packets are cut to the head boundary, the smallest
// self-contained size; if targetSize allows keeping some whole tails beyond
// the boundary they are preserved (multi-level trimming, §5.1).
//
// Trim mutates the flags byte of buf in place, mirroring how a trimming
// switch rewrites the packet, and clears the now-meaningless tail CRC.
func Trim(buf []byte, targetSize int) []byte {
	h, err := ParseHeader(buf)
	if err != nil {
		return buf // not ours; a real switch would just truncate
	}
	if h.IsMeta() {
		return buf
	}
	if targetSize < HeaderSize {
		targetSize = HeaderSize
	}
	if targetSize >= len(buf) {
		return buf // nothing to cut
	}

	var keep int
	if h.IsNaive() {
		// Keep whole 4-byte floats only.
		keep = HeaderSize + (targetSize-HeaderSize)/4*4
	} else {
		// Never cut below the head boundary; above it, keep whole tails.
		boundary := HeaderSize + h.HeadBytes()
		if targetSize <= boundary {
			keep = boundary
		} else if h.Q == 0 {
			keep = boundary
		} else {
			extraBits := (targetSize - boundary) * 8
			wholeTails := extraBits / int(h.Q)
			keep = boundary + (wholeTails*int(h.Q)+7)/8
			if keep > len(buf) {
				keep = len(buf)
			}
		}
	}
	if keep >= len(buf) {
		return buf
	}
	out := buf[:keep]
	out[offFlags] |= FlagTrimmed
	binary.BigEndian.PutUint32(out[offTailCRC:], 0)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
