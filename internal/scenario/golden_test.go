package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/tracefile"
)

// goldenDefaultTraceSHA256 pins the digest of scenario.Default()'s entire
// monitor-trace set, taken over the DECODED record stream (see TraceDigest),
// not over the container bytes. Every substrate change that is supposed to
// be backward compatible (new scenario features behind config gates, rng
// re-plumbing, MAC refactors) must keep the default scenario's records
// bit-for-bit: a digest change here means every archived trace and every
// downstream golden number silently shifted. A change to the block
// container or its codec must NOT move it — that is the proof the records
// on disk are still the same records.
//
// Repin (only for an INTENTIONAL compatibility break):
//
//	go test ./internal/scenario -run TestDefaultTraceGolden -v
//
// and copy the "got" digest printed in the failure into this constant,
// noting the break in CHANGES.md.
const goldenDefaultTraceSHA256 = "c187646d8223e789f8bf62ec5add9beee49b5c3c6c730772299bb26473ecab76"

// TraceDigest hashes a run's per-radio traces in radio-id order, as
// records: the radio id, then every field of every tracefile.Record in
// stream order (fixed-width little-endian, frame length before the frame
// bytes), then the radio's record count.
func TraceDigest(out *Output) (string, error) {
	ids := make([]int32, 0, len(out.Traces))
	for id := range out.Traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var b [23]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[0:4], uint32(id))
		h.Write(b[0:4])
		r := tracefile.NewReader(bytes.NewReader(out.Traces[id].Bytes()))
		var n uint64
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return "", fmt.Errorf("radio %d: %w", id, err)
			}
			binary.LittleEndian.PutUint64(b[0:8], uint64(rec.LocalUS))
			binary.LittleEndian.PutUint32(b[8:12], uint32(rec.RadioID))
			b[12] = rec.Channel
			b[13] = uint8(rec.RSSIdBm)
			binary.LittleEndian.PutUint16(b[14:16], rec.Rate)
			b[16] = rec.Flags
			binary.LittleEndian.PutUint16(b[17:19], rec.OrigLen)
			binary.LittleEndian.PutUint32(b[19:23], uint32(len(rec.Frame)))
			h.Write(b[:])
			h.Write(rec.Frame)
			n++
		}
		binary.LittleEndian.PutUint64(b[0:8], n)
		h.Write(b[0:8])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// TestDefaultTraceGolden is the compatibility gate PR 2 only checked by
// hand: the default scenario's records must stay bit-for-bit identical.
func TestDefaultTraceGolden(t *testing.T) {
	out, err := Run(Default())
	if err != nil {
		t.Fatal(err)
	}
	got, err := TraceDigest(out)
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenDefaultTraceSHA256 {
		t.Fatalf("scenario.Default() trace digest changed:\n  got  %s\n  want %s\n"+
			"If this break is intentional, repin goldenDefaultTraceSHA256 with the got value and document it in CHANGES.md.",
			got, goldenDefaultTraceSHA256)
	}
}
