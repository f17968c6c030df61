package tcpwire

import (
	"bytes"
	"testing"
)

func TestSegmentRoundTrip(t *testing.T) {
	s := Segment{
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: 49152, DstPort: 80,
		Seq: 1e9, Ack: 2e9, Flags: FlagSYN | FlagACK, PayloadLen: 512,
	}
	b := s.Encode()
	if len(b) != HeaderLen+512 {
		t.Fatalf("encoded length = %d", len(b))
	}
	g, err := DecodeSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if g != s {
		t.Errorf("round trip: %+v != %+v", g, s)
	}
}

// TestDecodeLiteralHeader pins the byte layout against a header written out
// by hand, so an Encode/DecodeSegment pair that drifted together still
// fails.
func TestDecodeLiteralHeader(t *testing.T) {
	b := []byte{
		0x01, 0x00, 0x00, 0x0a, // SrcIP 10.0.0.1
		0x02, 0x00, 0x00, 0x0b, // DstIP 11.0.0.2
		0x00, 0xc0, // SrcPort 49152
		0x50, 0x00, // DstPort 80
		0x78, 0x56, 0x34, 0x12, // Seq
		0xf0, 0xde, 0xbc, 0x9a, // Ack
		0x03,       // SYN|ACK
		0x54,       // magic
		0xb4, 0x05, // PayloadLen 1460
	}
	want := Segment{
		SrcIP: 0x0a000001, DstIP: 0x0b000002, SrcPort: 49152, DstPort: 80,
		Seq: 0x12345678, Ack: 0x9abcdef0, Flags: FlagSYN | FlagACK, PayloadLen: MSS,
	}
	g, err := DecodeSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if g != want {
		t.Errorf("decoded %+v, want %+v", g, want)
	}
	if enc := want.Encode(); !bytes.Equal(enc[:HeaderLen], b) {
		t.Errorf("Encode header = % x, want % x", enc[:HeaderLen], b)
	}
}

func TestSegmentDecodeTruncatedPayload(t *testing.T) {
	s := Segment{SrcIP: 1, DstIP: 2, PayloadLen: 1400, Flags: FlagACK}
	b := s.Encode()[:200] // monitor snap length
	g, err := DecodeSegment(b)
	if err != nil {
		t.Fatal("header-intact truncated segment must decode")
	}
	if g.PayloadLen != 1400 {
		t.Error("payload length lost")
	}
}

func TestSegmentDecodeRejectsJunk(t *testing.T) {
	if _, err := DecodeSegment([]byte("hello")); err != ErrNotTCP {
		t.Error("short junk accepted")
	}
	b := make([]byte, 64)
	if _, err := DecodeSegment(b); err != ErrNotTCP {
		t.Error("junk without magic accepted")
	}
}

func TestFlowKeyDirectionInsensitive(t *testing.T) {
	a := Segment{SrcIP: 1, DstIP: 2, SrcPort: 100, DstPort: 200}
	b := Segment{SrcIP: 2, DstIP: 1, SrcPort: 200, DstPort: 100}
	if a.Key() != b.Key() {
		t.Error("keys differ across directions")
	}
}

func TestSeqEnd(t *testing.T) {
	s := Segment{Seq: 10, PayloadLen: 5}
	if s.SeqEnd() != 15 {
		t.Error("plain payload SeqEnd")
	}
	s.Flags = FlagSYN
	if s.SeqEnd() != 16 {
		t.Error("SYN consumes a sequence number")
	}
}

// FuzzDecodeSegment feeds DecodeSegment arbitrary frame bodies, which is
// what a capture hands it: it must never panic, and a body it accepts must
// re-encode to the same header bytes.
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add(make([]byte, HeaderLen))
	f.Add((&Segment{SrcIP: 1, DstIP: 2, Seq: 7, Flags: FlagSYN, PayloadLen: 3}).Encode())
	f.Add((&Segment{SrcIP: 9, DstIP: 8, Ack: 1 << 31, Flags: FlagACK, PayloadLen: MSS}).Encode()[:HeaderLen+10])
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSegment(b)
		if err != nil {
			if err != ErrNotTCP {
				t.Fatalf("error %v, want ErrNotTCP", err)
			}
			return
		}
		if enc := s.Encode(); !bytes.Equal(enc[:HeaderLen], b[:HeaderLen]) {
			t.Fatalf("re-encoded header % x, body header % x", enc[:HeaderLen], b[:HeaderLen])
		}
	})
}
