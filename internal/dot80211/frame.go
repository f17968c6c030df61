// Package dot80211 models IEEE 802.11 MAC frames and PHY timing for the
// Jigsaw reproduction.
//
// The package provides a wire-faithful (for Jigsaw's purposes) frame codec in
// a gopacket-inspired style: frames serialize to byte slices carrying a
// frame-control word, duration, addresses, sequence control, body and a
// CRC-32 FCS, and decode back with lazy, zero-copy views where possible. It
// also implements the 802.11b (CCK/DSSS) and 802.11g (ERP-OFDM) airtime
// model, including PLCP preambles and the CTS-to-self protection arithmetic
// from the paper's footnote 7.
package dot80211

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MAC is a 48-bit IEEE MAC address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in the conventional colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the address has the group bit set (includes
// broadcast).
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// MarshalText implements encoding.TextMarshaler: the colon-separated
// form. JSON uses it for MAC values and for MAC-keyed map keys alike, so
// rosters (meta.json) and report rows carry "aa:bb:cc:dd:ee:ff" strings.
func (m MAC) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler; JSON uses it too, so
// only the string form decodes (an array of octets is a type error).
func (m *MAC) UnmarshalText(b []byte) error {
	p, err := ParseMAC(string(b))
	if err != nil {
		return err
	}
	*m = p
	return nil
}

// ParseMAC parses a colon-separated MAC address.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("dot80211: bad MAC %q", s)
	}
	for i := 0; i < 6; i++ {
		var b byte
		if _, err := fmt.Sscanf(s[i*3:i*3+2], "%02x", &b); err != nil {
			return m, fmt.Errorf("dot80211: bad MAC %q: %v", s, err)
		}
		m[i] = b
		if i < 5 && s[i*3+2] != ':' {
			return m, fmt.Errorf("dot80211: bad MAC %q", s)
		}
	}
	return m, nil
}

// Type is the 2-bit 802.11 frame type.
type Type uint8

// Frame types.
const (
	TypeManagement Type = 0
	TypeControl    Type = 1
	TypeData       Type = 2
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TypeManagement:
		return "MGMT"
	case TypeControl:
		return "CTRL"
	case TypeData:
		return "DATA"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Subtype is the 4-bit 802.11 frame subtype, scoped by Type.
type Subtype uint8

// Management subtypes.
const (
	SubtypeAssocReq    Subtype = 0
	SubtypeAssocResp   Subtype = 1
	SubtypeReassocReq  Subtype = 2
	SubtypeReassocResp Subtype = 3
	SubtypeProbeReq    Subtype = 4
	SubtypeProbeResp   Subtype = 5
	SubtypeBeacon      Subtype = 8
	SubtypeDisassoc    Subtype = 10
	SubtypeAuth        Subtype = 11
	SubtypeDeauth      Subtype = 12
)

// Control subtypes.
const (
	SubtypeRTS   Subtype = 11
	SubtypeCTS   Subtype = 12
	SubtypeACK   Subtype = 13
	SubtypeCFEnd Subtype = 14
)

// Data subtypes.
const (
	SubtypeDataPlain Subtype = 0
	SubtypeDataNull  Subtype = 4
	SubtypeQoSData   Subtype = 8
	SubtypeQoSNull   Subtype = 12
)

// SubtypeName returns a human-readable name for a (type, subtype) pair.
func SubtypeName(t Type, s Subtype) string {
	switch t {
	case TypeManagement:
		switch s {
		case SubtypeAssocReq:
			return "AssocReq"
		case SubtypeAssocResp:
			return "AssocResp"
		case SubtypeReassocReq:
			return "ReassocReq"
		case SubtypeReassocResp:
			return "ReassocResp"
		case SubtypeProbeReq:
			return "ProbeReq"
		case SubtypeProbeResp:
			return "ProbeResp"
		case SubtypeBeacon:
			return "Beacon"
		case SubtypeDisassoc:
			return "Disassoc"
		case SubtypeAuth:
			return "Auth"
		case SubtypeDeauth:
			return "Deauth"
		}
	case TypeControl:
		switch s {
		case SubtypeRTS:
			return "RTS"
		case SubtypeCTS:
			return "CTS"
		case SubtypeACK:
			return "ACK"
		case SubtypeCFEnd:
			return "CFEnd"
		}
	case TypeData:
		switch s {
		case SubtypeDataPlain:
			return "Data"
		case SubtypeDataNull:
			return "Null"
		case SubtypeQoSData:
			return "QoSData"
		case SubtypeQoSNull:
			return "QoSNull"
		}
	}
	return fmt.Sprintf("%v(%d)", t, uint8(s))
}

// Flags is the frame-control flags byte.
type Flags uint8

// Frame-control flag bits.
const (
	FlagToDS      Flags = 1 << 0
	FlagFromDS    Flags = 1 << 1
	FlagMoreFrag  Flags = 1 << 2
	FlagRetry     Flags = 1 << 3
	FlagPwrMgmt   Flags = 1 << 4
	FlagMoreData  Flags = 1 << 5
	FlagProtected Flags = 1 << 6
	FlagOrder     Flags = 1 << 7
)

// Header is the decoded MAC header common to all frame kinds. Control frames
// populate only a subset of the fields (Addr2/Addr3/Seq are zero for ACK and
// CTS; Addr3/Seq are zero for RTS).
type Header struct {
	Type     Type
	Subtype  Subtype
	Flags    Flags
	Duration uint16 // microseconds of medium reservation (NAV)
	Addr1    MAC    // receiver address
	Addr2    MAC    // transmitter address (absent for ACK/CTS)
	Addr3    MAC    // BSSID / DA / SA depending on DS bits
	Seq      uint16 // 12-bit sequence number
	Frag     uint8  // 4-bit fragment number
}

// Retry reports whether the retry bit is set.
func (h Header) Retry() bool { return h.Flags&FlagRetry != 0 }

// HasSequence reports whether this frame kind carries a sequence-control
// field (DATA and MANAGEMENT frames do; CONTROL frames do not).
func (h Header) HasSequence() bool { return h.Type != TypeControl }

// Transmitter returns the address of the transmitting station, or the zero
// MAC if this frame kind does not carry one (ACK, CTS received by others).
// CTS-to-self frames do carry the transmitter in Addr1 (RA == own address),
// but at the codec level we cannot distinguish; callers use link-layer
// context for that.
func (h Header) Transmitter() MAC {
	if h.Type == TypeControl && (h.Subtype == SubtypeACK || h.Subtype == SubtypeCTS) {
		return MAC{}
	}
	return h.Addr2
}

// Receiver returns the destination address (Addr1).
func (h Header) Receiver() MAC { return h.Addr1 }

// IsBeacon reports whether the frame is a management beacon.
func (h Header) IsBeacon() bool {
	return h.Type == TypeManagement && h.Subtype == SubtypeBeacon
}

// IsProbeResp reports whether the frame is a probe response.
func (h Header) IsProbeResp() bool {
	return h.Type == TypeManagement && h.Subtype == SubtypeProbeResp
}

// IsACK reports whether the frame is a control ACK.
func (h Header) IsACK() bool { return h.Type == TypeControl && h.Subtype == SubtypeACK }

// IsCTS reports whether the frame is a control CTS.
func (h Header) IsCTS() bool { return h.Type == TypeControl && h.Subtype == SubtypeCTS }

// IsData reports whether the frame is any DATA-type frame.
func (h Header) IsData() bool { return h.Type == TypeData }

// IsUnicastData reports whether the frame is a DATA frame to a unicast
// destination (and hence subject to link-layer ARQ).
func (h Header) IsUnicastData() bool { return h.Type == TypeData && !h.Addr1.IsMulticast() }

// Frame is a fully assembled 802.11 frame: header plus body payload. Frames
// built by the simulator keep Body as the (possibly truncated to snap length)
// upper-layer payload; decoded frames alias the underlying capture buffer.
type Frame struct {
	Header
	Body []byte
}

// headerLen returns the on-air MAC header length for the frame kind.
func headerLen(t Type, s Subtype) int {
	if t == TypeControl {
		switch s {
		case SubtypeACK, SubtypeCTS:
			return 2 + 2 + 6 // FC + Duration + RA
		case SubtypeRTS:
			return 2 + 2 + 6 + 6 // FC + Duration + RA + TA
		default:
			return 2 + 2 + 6 + 6
		}
	}
	return 2 + 2 + 6 + 6 + 6 + 2 // FC + Duration + A1 + A2 + A3 + SeqCtl
}

// fcEntry is one frame-control byte's precomputed decode dispatch: type,
// subtype, and the on-air MAC header length, so the decoders' hot path is a
// single table load instead of bit extraction plus a kind switch.
type fcEntry struct {
	typ     Type
	subtype Subtype
	hdrLen  uint8
}

// fcTable maps the first frame-control byte (version | type<<2 | subtype<<4)
// to its decode dispatch. Built from headerLen so the table and the
// kind-switch reference agree by construction.
var fcTable = func() (t [256]fcEntry) {
	for fc := 0; fc < 256; fc++ {
		typ := Type(fc >> 2 & 0x3)
		sub := Subtype(fc >> 4 & 0xf)
		t[fc] = fcEntry{typ: typ, subtype: sub, hdrLen: uint8(headerLen(typ, sub))}
	}
	return
}()

// fcsLen is the length of the frame check sequence.
const fcsLen = 4

// BodyOffset returns the offset of the frame body within the capture
// buffer it was decoded from — the MAC header length for this frame kind.
// Callers that copy a capture buffer use it to re-point Body into the
// copy.
func (f *Frame) BodyOffset() int { return headerLen(f.Type, f.Subtype) }

// WireLen returns the total on-air length of the frame in bytes, including
// MAC header, body and FCS. This is the length the PHY airtime model uses.
func (f *Frame) WireLen() int {
	return headerLen(f.Type, f.Subtype) + len(f.Body) + fcsLen
}

// Encode serializes the frame to wire format, appending a valid FCS.
func (f *Frame) Encode() []byte {
	hl := headerLen(f.Type, f.Subtype)
	b := make([]byte, hl+len(f.Body)+fcsLen)
	fc := uint16(f.Type)<<2 | uint16(f.Subtype)<<4 | uint16(f.Flags)<<8
	binary.LittleEndian.PutUint16(b[0:2], fc)
	binary.LittleEndian.PutUint16(b[2:4], f.Duration)
	copy(b[4:10], f.Addr1[:])
	if hl > 10 {
		copy(b[10:16], f.Addr2[:])
	}
	if hl > 16 {
		copy(b[16:22], f.Addr3[:])
		sc := uint16(f.Frag&0x0f) | (f.Seq&0x0fff)<<4
		binary.LittleEndian.PutUint16(b[22:24], sc)
	}
	copy(b[hl:], f.Body)
	fcs := crc32.ChecksumIEEE(b[: hl+len(f.Body) : hl+len(f.Body)])
	binary.LittleEndian.PutUint32(b[hl+len(f.Body):], fcs)
	return b
}

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("dot80211: frame truncated")
	ErrBadFCS    = errors.New("dot80211: FCS mismatch")
)

// Decode parses a wire-format frame. The returned frame's Body aliases b.
// A frame whose FCS does not match decodes as far as possible and returns
// ErrBadFCS alongside the partial frame, mirroring how Jigsaw's monitors
// deliver corrupted frames with an FCS-failed flag.
//
// Decode dispatches through fcTable (the 256-entry frame-control table) and
// loads header fields at fixed offsets; FuzzDecodeTableMatchesReference
// pins it byte-for-byte against the pre-table reference decoder.
func Decode(b []byte) (Frame, error) {
	var f Frame
	if len(b) < 4 {
		return f, ErrTruncated
	}
	e := &fcTable[b[0]]
	f.Type, f.Subtype, f.Flags = e.typ, e.subtype, Flags(b[1])
	f.Duration = uint16(b[2]) | uint16(b[3])<<8
	hl := int(e.hdrLen)
	if len(b) < hl {
		// Partial header: recover what we can (Addr1 at least needs 10 bytes).
		if len(b) >= 10 {
			f.Addr1 = MAC(b[4:10])
		}
		return f, ErrTruncated
	}
	f.Addr1 = MAC(b[4:10])
	if hl > 10 {
		f.Addr2 = MAC(b[10:16])
	}
	if hl > 16 {
		f.Addr3 = MAC(b[16:22])
		sc := uint16(b[22]) | uint16(b[23])<<8
		f.Frag = uint8(sc & 0x0f)
		f.Seq = sc >> 4
	}
	if len(b) < hl+fcsLen {
		return f, ErrTruncated
	}
	f.Body = b[hl : len(b)-fcsLen]
	want := binary.LittleEndian.Uint32(b[len(b)-fcsLen:])
	got := crc32.ChecksumIEEE(b[:len(b)-fcsLen])
	if want != got {
		return f, ErrBadFCS
	}
	return f, nil
}

// DecodeCapture parses a captured frame that may have been snap-truncated
// by the monitor (jigdump captures keep the MAC header plus up to ~200
// payload bytes, §5). The header must be intact; the FCS is validated when
// present and stripped, otherwise the remainder is taken as (truncated)
// body. The returned bool reports whether the full FCS validated — callers
// should trust the capture hardware's FCS flag for validity, since a
// snapped frame cannot re-validate.
//
// Like Decode, DecodeCapture is table-driven and fuzz-pinned against the
// pre-table reference.
func DecodeCapture(b []byte) (Frame, bool, error) {
	var f Frame
	if len(b) < 4 {
		return f, false, ErrTruncated
	}
	e := &fcTable[b[0]]
	f.Type, f.Subtype, f.Flags = e.typ, e.subtype, Flags(b[1])
	f.Duration = uint16(b[2]) | uint16(b[3])<<8
	hl := int(e.hdrLen)
	if len(b) < hl {
		if len(b) >= 10 {
			f.Addr1 = MAC(b[4:10])
		}
		return f, false, ErrTruncated
	}
	f.Addr1 = MAC(b[4:10])
	if hl > 10 {
		f.Addr2 = MAC(b[10:16])
	}
	if hl > 16 {
		f.Addr3 = MAC(b[16:22])
		sc := uint16(b[22]) | uint16(b[23])<<8
		f.Frag = uint8(sc & 0x0f)
		f.Seq = sc >> 4
	}
	if len(b) >= hl+fcsLen {
		want := binary.LittleEndian.Uint32(b[len(b)-fcsLen:])
		if crc32.ChecksumIEEE(b[:len(b)-fcsLen]) == want {
			f.Body = b[hl : len(b)-fcsLen]
			return f, true, nil
		}
	}
	// Snapped (or corrupted): everything past the header is body.
	f.Body = b[hl:]
	return f, false, nil
}

// String renders a one-line summary of the frame for debugging and the
// Figure-2-style visualization.
func (f *Frame) String() string {
	name := SubtypeName(f.Type, f.Subtype)
	switch {
	case f.Type == TypeControl && (f.Subtype == SubtypeACK || f.Subtype == SubtypeCTS):
		return fmt.Sprintf("%s ra=%v dur=%d", name, f.Addr1, f.Duration)
	case f.Type == TypeControl:
		return fmt.Sprintf("%s ra=%v ta=%v dur=%d", name, f.Addr1, f.Addr2, f.Duration)
	default:
		r := ""
		if f.Retry() {
			r = " retry"
		}
		return fmt.Sprintf("%s ra=%v ta=%v seq=%d dur=%d len=%d%s",
			name, f.Addr1, f.Addr2, f.Seq, f.Duration, f.WireLen(), r)
	}
}

// NewAck builds an ACK control frame addressed to ra.
func NewAck(ra MAC) Frame {
	return Frame{Header: Header{Type: TypeControl, Subtype: SubtypeACK, Addr1: ra}}
}

// NewCTSToSelf builds the CTS-to-self frame used by 802.11g protection mode.
// The duration covers the time remaining in the protected exchange.
func NewCTSToSelf(self MAC, durationUS uint16) Frame {
	return Frame{Header: Header{
		Type: TypeControl, Subtype: SubtypeCTS, Addr1: self, Duration: durationUS,
	}}
}

// NewRTS builds an RTS control frame.
func NewRTS(ra, ta MAC, durationUS uint16) Frame {
	return Frame{Header: Header{
		Type: TypeControl, Subtype: SubtypeRTS, Addr1: ra, Addr2: ta, Duration: durationUS,
	}}
}

// NewData builds a unicast or broadcast DATA frame. The ToDS/FromDS flags
// are the caller's responsibility.
func NewData(ra, ta, bssid MAC, seq uint16, body []byte) Frame {
	return Frame{
		Header: Header{
			Type: TypeData, Subtype: SubtypeDataPlain,
			Addr1: ra, Addr2: ta, Addr3: bssid, Seq: seq,
		},
		Body: body,
	}
}

// NewBeacon builds a beacon management frame for the given BSSID. The body
// carries the timestamp field and capability/SSID info the way real beacons
// do; we encode the 64-bit TSF timestamp followed by the SSID bytes, which
// is enough to make beacon bodies differ across APs and across time.
func NewBeacon(bssid MAC, seq uint16, tsf uint64, ssid string) Frame {
	body := make([]byte, 8+len(ssid))
	binary.LittleEndian.PutUint64(body[:8], tsf)
	copy(body[8:], ssid)
	return Frame{
		Header: Header{
			Type: TypeManagement, Subtype: SubtypeBeacon,
			Addr1: Broadcast, Addr2: bssid, Addr3: bssid, Seq: seq,
		},
		Body: body,
	}
}

// NewProbeReq builds a probe request from a client (broadcast destination).
func NewProbeReq(ta MAC, seq uint16, ssid string) Frame {
	return Frame{
		Header: Header{
			Type: TypeManagement, Subtype: SubtypeProbeReq,
			Addr1: Broadcast, Addr2: ta, Addr3: Broadcast, Seq: seq,
		},
		Body: []byte(ssid),
	}
}

// NewProbeResp builds a probe response from an AP to a client.
func NewProbeResp(ra, bssid MAC, seq uint16, ssid string) Frame {
	return Frame{
		Header: Header{
			Type: TypeManagement, Subtype: SubtypeProbeResp,
			Addr1: ra, Addr2: bssid, Addr3: bssid, Seq: seq,
		},
		Body: []byte(ssid),
	}
}

// NewMgmt builds a generic management frame (assoc/auth/etc.) with the given
// subtype.
func NewMgmt(sub Subtype, ra, ta, bssid MAC, seq uint16, body []byte) Frame {
	return Frame{
		Header: Header{
			Type: TypeManagement, Subtype: sub,
			Addr1: ra, Addr2: ta, Addr3: bssid, Seq: seq,
		},
		Body: body,
	}
}

// UniqueForSync reports whether a frame is a good synchronization reference
// per §4.1 of the paper: DATA or MANAGEMENT frames with distinguishing
// content and without the retry bit. ACKs, CTS, RTS and retransmitted frames
// are excluded because instances cannot be told apart. Beacons are allowed:
// their TSF timestamps make each one unique. Probe requests are excluded
// (some stations reuse sequence number zero).
func (h Header) UniqueForSync() bool {
	if h.Type == TypeControl || h.Retry() {
		return false
	}
	if h.Type == TypeManagement && h.Subtype == SubtypeProbeReq {
		return false
	}
	return true
}
