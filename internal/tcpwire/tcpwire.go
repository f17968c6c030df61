// Package tcpwire owns the TCP/IP segment header carried in 802.11 DATA
// frame bodies — its codec, the direction-insensitive flow key and 32-bit
// sequence arithmetic — the way dot80211 owns 802.11 frames: a leaf package,
// so the pipeline decodes captures without linking the simulator.
package tcpwire

import (
	"encoding/binary"
	"errors"
)

// TCP flag bits.
const (
	FlagSYN uint8 = 1 << 0
	FlagACK uint8 = 1 << 1
	FlagFIN uint8 = 1 << 2
)

// MSS is the maximum segment payload. It matches the footnote-7 arithmetic
// (an MSS TCP segment at 54 Mbps ≈ 248 µs).
const MSS = 1460

// HeaderLen is the encoded segment header size.
const HeaderLen = 24

// Segment is the on-wire TCP/IP header. IPs are 32-bit host identifiers
// assigned by the scenario; the body carried in an 802.11 frame is the
// encoded header followed by PayloadLen padding bytes (payload content is
// irrelevant to every analysis, but its length drives airtime).
type Segment struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	PayloadLen       uint16
}

// FlowKey identifies a TCP connection direction-insensitively: the paper's
// flow reassembly groups both directions of a conversation.
type FlowKey struct {
	IPLo, IPHi     uint32
	PortLo, PortHi uint16
}

// Key returns the canonical (direction-insensitive) flow key.
func (s *Segment) Key() FlowKey {
	a := uint64(s.SrcIP)<<16 | uint64(s.SrcPort)
	b := uint64(s.DstIP)<<16 | uint64(s.DstPort)
	if a <= b {
		return FlowKey{s.SrcIP, s.DstIP, s.SrcPort, s.DstPort}
	}
	return FlowKey{s.DstIP, s.SrcIP, s.DstPort, s.SrcPort}
}

// Encode serializes the segment header plus PayloadLen padding.
func (s *Segment) Encode() []byte {
	b := make([]byte, HeaderLen+int(s.PayloadLen))
	binary.LittleEndian.PutUint32(b[0:4], s.SrcIP)
	binary.LittleEndian.PutUint32(b[4:8], s.DstIP)
	binary.LittleEndian.PutUint16(b[8:10], s.SrcPort)
	binary.LittleEndian.PutUint16(b[10:12], s.DstPort)
	binary.LittleEndian.PutUint32(b[12:16], s.Seq)
	binary.LittleEndian.PutUint32(b[16:20], s.Ack)
	b[20] = s.Flags
	b[21] = 0x54 // magic marker distinguishing TCP bodies from other traffic
	binary.LittleEndian.PutUint16(b[22:24], s.PayloadLen)
	return b
}

// ErrNotTCP marks bodies that do not carry one of our segments.
var ErrNotTCP = errors.New("tcpwire: not a TCP segment")

// DecodeSegment parses a segment header from an 802.11 frame body. The body
// may be truncated below PayloadLen (monitors snap frames); only the header
// must be intact.
func DecodeSegment(b []byte) (Segment, error) {
	var s Segment
	if len(b) < HeaderLen || b[21] != 0x54 {
		return s, ErrNotTCP
	}
	s.SrcIP = binary.LittleEndian.Uint32(b[0:4])
	s.DstIP = binary.LittleEndian.Uint32(b[4:8])
	s.SrcPort = binary.LittleEndian.Uint16(b[8:10])
	s.DstPort = binary.LittleEndian.Uint16(b[10:12])
	s.Seq = binary.LittleEndian.Uint32(b[12:16])
	s.Ack = binary.LittleEndian.Uint32(b[16:20])
	s.Flags = b[20]
	s.PayloadLen = binary.LittleEndian.Uint16(b[22:24])
	return s, nil
}

// IsSYN etc. report flag state.
func (s *Segment) IsSYN() bool { return s.Flags&FlagSYN != 0 }
func (s *Segment) IsACK() bool { return s.Flags&FlagACK != 0 }
func (s *Segment) IsFIN() bool { return s.Flags&FlagFIN != 0 }

// SeqEnd returns the sequence number just past this segment's payload
// (SYN and FIN each consume one sequence number).
func (s *Segment) SeqEnd() uint32 {
	end := s.Seq + uint32(s.PayloadLen)
	if s.IsSYN() || s.IsFIN() {
		end++
	}
	return end
}

// SeqLess compares 32-bit sequence numbers with wraparound.
func SeqLess(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ is SeqLess-or-equal.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
