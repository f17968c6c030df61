package hmerge

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/unify"
)

// synthFrames builds a sorted synthetic jframe stream exercising the
// format's variety: phy-only events, empty-wire records, duplicate
// timestamps, multi-instance observations, both instance flags.
func synthFrames(n int, seed int64) []*unify.JFrame {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*unify.JFrame, 0, n)
	us := int64(1000)
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			us += int64(rng.Intn(500)) // sometimes keep exact duplicates
		}
		j := &unify.JFrame{
			UnivUS:       us,
			Rate:         dot80211.Rate(rng.Intn(540)),
			Channel:      dot80211.Channel(1 + rng.Intn(11)),
			Valid:        rng.Intn(2) == 0,
			DispersionUS: int64(rng.Intn(30)),
		}
		switch rng.Intn(5) {
		case 0:
			j.PhyOnly = true
		case 1:
			// Decoded (not phy-only) capture with zero snapped bytes.
			j.WireLen = 40
		default:
			wire := make([]byte, 1+rng.Intn(64))
			rng.Read(wire)
			j.Wire = wire
			j.WireLen = len(wire) + rng.Intn(8)
		}
		for k := rng.Intn(4); k > 0; k-- {
			j.Instances = append(j.Instances, unify.Instance{
				Radio:   int32(rng.Intn(100)),
				LocalUS: us - int64(rng.Intn(1000)),
				UnivUS:  us + int64(k),
				RSSIdBm: int8(-30 - rng.Intn(60)),
				FCSOK:   rng.Intn(2) == 0,
				PhyErr:  rng.Intn(3) == 0,
			})
		}
		frames = append(frames, j)
	}
	return frames
}

// decodedForm is what the Reader must return for an input jframe: wire
// bytes preserved exactly, the frame header re-derived from them, and the
// instance slice always non-nil.
func decodedForm(in *unify.JFrame) *unify.JFrame {
	out := *in
	if len(in.Wire) == 0 {
		out.Wire = nil
	}
	out.Instances = append(make([]unify.Instance, 0, len(in.Instances)), in.Instances...)
	out.Frame = dot80211.Frame{}
	if !in.PhyOnly {
		f, _, _ := dot80211.DecodeCapture(out.Wire)
		out.Frame = f
	}
	return &out
}

// public strips a frame to its exported fields, so reflect.DeepEqual
// compares stream content and ignores the pool bookkeeping (reference
// count, owned wire buffer) that legitimately differs between the
// Reader's pooled frames and literal-built expectations.
func public(j *unify.JFrame) *unify.JFrame {
	out := &unify.JFrame{}
	src := reflect.ValueOf(j).Elem()
	dst := reflect.ValueOf(out).Elem()
	for i := 0; i < src.NumField(); i++ {
		if dst.Type().Field(i).IsExported() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	if len(out.Wire) == 0 {
		out.Wire = nil
	}
	out.Instances = append(make([]unify.Instance, 0, len(out.Instances)), out.Instances...)
	return out
}

// encodeStream serializes frames through the Writer.
func encodeStream(tb testing.TB, frames []*unify.JFrame) ([]byte, *Writer) {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, j := range frames {
		if err := w.WriteJFrame(j); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), w
}

func TestRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		frames := synthFrames(500, seed)
		data, w := encodeStream(t, frames)
		if w.JFrames != int64(len(frames)) {
			t.Fatalf("seed %d: writer counted %d jframes, wrote %d", seed, w.JFrames, len(frames))
		}
		if w.FirstUnivUS != frames[0].UnivUS || w.WatermarkUS != frames[len(frames)-1].UnivUS {
			t.Fatalf("seed %d: writer span [%d, %d], frames span [%d, %d]",
				seed, w.FirstUnivUS, w.WatermarkUS, frames[0].UnivUS, frames[len(frames)-1].UnivUS)
		}

		r := NewReader(bytes.NewReader(data))
		for i, want := range frames {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("seed %d: frame %d: %v", seed, i, err)
			}
			if !reflect.DeepEqual(public(got), public(decodedForm(want))) {
				t.Fatalf("seed %d: frame %d mismatch:\n got %+v\nwant %+v", seed, i, got, decodedForm(want))
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("seed %d: want io.EOF at end, got %v", seed, err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("seed %d: EOF must be sticky, got %v", seed, err)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	data, w := encodeStream(t, nil)
	if w.JFrames != 0 {
		t.Fatalf("empty stream counted %d jframes", w.JFrames)
	}
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean io.EOF on empty stream, got %v", err)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteJFrame(&unify.JFrame{UnivUS: 100, PhyOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteJFrame(&unify.JFrame{UnivUS: 99, PhyOnly: true}); err == nil {
		t.Fatal("writer accepted an out-of-order jframe")
	}
	// Equal timestamps are in order (the unifier emits ties).
	if err := w.WriteJFrame(&unify.JFrame{UnivUS: 100, PhyOnly: true}); err != nil {
		t.Fatalf("writer rejected a duplicate timestamp: %v", err)
	}
}

func TestWriterRejectsOversizedWire(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteJFrame(&unify.JFrame{UnivUS: 1, Wire: make([]byte, 1<<16)}); err == nil {
		t.Fatal("writer accepted a wire body beyond the format's u16 limit")
	}
}

// TestMergeOrdering is the k-way-merge property: splitting one sorted
// sequence across k streams (preserving relative order, so each stream is
// sorted) and merging must reproduce a sorted sequence that matches an
// independent head-min reference merge.
func TestMergeOrdering(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		rng := rand.New(rand.NewSource(int64(k)))
		frames := synthFrames(600, int64(10+k))
		parts := make([][]*unify.JFrame, k)
		for _, j := range frames {
			i := rng.Intn(k)
			parts[i] = append(parts[i], j)
		}

		// Reference: repeatedly take the smallest (UnivUS, stream index)
		// head across the split streams.
		cursors := make([]int, k)
		var want []*unify.JFrame
		for {
			best := -1
			for i := 0; i < k; i++ {
				if cursors[i] >= len(parts[i]) {
					continue
				}
				if best < 0 || parts[i][cursors[i]].UnivUS < parts[best][cursors[best]].UnivUS {
					best = i
				}
			}
			if best < 0 {
				break
			}
			want = append(want, parts[best][cursors[best]])
			cursors[best]++
		}

		streams := make([]*Stream, k)
		for i := range parts {
			data, _ := encodeStream(t, parts[i])
			streams[i] = NewStream(nil, bytes.NewReader(data))
		}
		m := NewMerger(streams, false)
		var lastUS int64
		for n, wj := range want {
			got, err := m.Next()
			if err != nil {
				t.Fatalf("k=%d: merge frame %d: %v", k, n, err)
			}
			if n > 0 && got.UnivUS < lastUS {
				t.Fatalf("k=%d: merge emitted %d after %d", k, got.UnivUS, lastUS)
			}
			lastUS = got.UnivUS
			if !reflect.DeepEqual(public(got), public(decodedForm(wj))) {
				t.Fatalf("k=%d: merge frame %d mismatch", k, n)
			}
		}
		if _, err := m.Next(); err != io.EOF {
			t.Fatalf("k=%d: want io.EOF after merge, got %v", k, err)
		}
	}
}

// TestMergerCloseUnwinds: a merge abandoned part way — by a consumer that
// stops early, or by a stream that fails mid-pass — must leave no pooled
// frame still referenced once Close returns.
func TestMergerCloseUnwinds(t *testing.T) {
	for _, damaged := range []bool{false, true} {
		live := unify.LiveJFrames()
		streams := make([]*Stream, 3)
		for i := range streams {
			data, _ := encodeStream(t, synthFrames(1000, int64(20+i)))
			if damaged && i == 1 {
				data = data[:len(data)/2]
			}
			streams[i] = NewStream(nil, bytes.NewReader(data))
		}
		m := NewMerger(streams, false)
		var err error
		for n := 0; err == nil && (damaged || n < 100); n++ {
			var j *unify.JFrame
			if j, err = m.Next(); err == nil {
				j.Release()
			}
		}
		if damaged && (err == nil || err == io.EOF) {
			t.Fatalf("truncated stream merged with err = %v", err)
		}
		m.Close()
		if n := unify.LiveJFrames() - live; n != 0 {
			t.Errorf("damaged=%v: %d pooled jframes still referenced after Close", damaged, n)
		}
	}
}

func TestReaderRejectsCorrupt(t *testing.T) {
	valid, _ := encodeStream(t, synthFrames(200, 7))

	flip := func(off int) []byte {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xff
		return b
	}
	hugeComp := append([]byte(nil), valid...)
	// Block header starts after the 8-byte stream header; compLen is its
	// bytes 4:8.
	hugeComp[12], hugeComp[13], hugeComp[14], hugeComp[15] = 0xff, 0xff, 0xff, 0x7f

	// An out-of-order stream the Writer cannot produce: two single-frame
	// streams concatenated (the second's stream header stripped), with the
	// second frame earlier than the first.
	a, _ := encodeStream(t, []*unify.JFrame{{UnivUS: 200, PhyOnly: true}})
	b, _ := encodeStream(t, []*unify.JFrame{{UnivUS: 100, PhyOnly: true}})
	outOfOrder := append(append([]byte(nil), a...), b[8:]...)

	cases := map[string][]byte{
		"empty input":            {},
		"truncated magic":        valid[:5],
		"bad stream magic":       flip(0),
		"bad version":            flip(4),
		"bad block magic":        flip(8),
		"huge claimed compLen":   hugeComp,
		"truncated block header": valid[:20],
		"truncated block body":   valid[:len(valid)-3],
		"corrupt payload":        flip(40),
		"out of order":           outOfOrder,
	}
	for name, data := range cases {
		r := NewReader(bytes.NewReader(data))
		var err error
		for i := 0; i < 1<<20 && err == nil; i++ {
			_, err = r.Next()
		}
		if err == nil {
			t.Fatalf("%s: reader never failed", name)
		}
		if err == io.EOF {
			t.Fatalf("%s: reader reported a clean EOF", name)
		}
		if _, err2 := r.Next(); err2 != err {
			t.Fatalf("%s: error not sticky: %v then %v", name, err, err2)
		}
	}
}

// TestUnifyDirDeterminism pins the separate-process contract: the same
// trace directory must serialize to byte-identical stream files regardless
// of the worker's bootstrap parallelism, and the stream must read back
// exactly as many jframes as the sidecar claims, in sorted order.
func TestUnifyDirDeterminism(t *testing.T) {
	dir := t.TempDir()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 3, 3, 6
	cfg.Day = 10 * sim.Second
	cfg.Seed = 42
	cfg.SpillDir = filepath.Join(dir, "traces")
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	paths := [2]string{filepath.Join(dir, "w1.jfs"), filepath.Join(dir, "w4.jfs")}
	metas := [2]*Meta{}
	for i, workers := range []int{1, 4} {
		m, err := UnifyDir(cfg.SpillDir, paths[i], out.ClockGroups, UnifyConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		metas[i] = m
	}
	b1, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b4, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b4) {
		t.Fatalf("stream bytes differ across bootstrap worker counts (%d vs %d bytes)", len(b1), len(b4))
	}
	if !reflect.DeepEqual(metas[0], metas[1]) {
		t.Fatalf("sidecars differ across bootstrap worker counts:\n%+v\n%+v", metas[0], metas[1])
	}

	s, err := OpenStream(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if s.Meta.JFrames == 0 {
		t.Fatal("sidecar claims an empty stream for a live scenario")
	}
	var n, lastUS int64
	for {
		j, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && j.UnivUS < lastUS {
			t.Fatalf("stream out of order: %d after %d", j.UnivUS, lastUS)
		}
		lastUS = j.UnivUS
		n++
	}
	if n != s.Meta.JFrames {
		t.Fatalf("stream holds %d jframes, sidecar claims %d", n, s.Meta.JFrames)
	}
	if lastUS != s.Meta.LastUnivUS {
		t.Fatalf("stream watermark %d, sidecar claims %d", lastUS, s.Meta.LastUnivUS)
	}
}

// TestV1Rejected: a version-1 (DEFLATE) stream is refused at its header
// with the version error — there is no fallback reader.
func TestV1Rejected(t *testing.T) {
	var raw [recHdrLen]byte // one phy-only jframe at UnivUS 0
	raw[0] = flagPhyOnly
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw[:]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	v1 := []byte("JFS1\x01\x00\x00\x00JFSB")
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(comp.Len()))
	v1 = binary.LittleEndian.AppendUint32(v1, recHdrLen)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 0)
	v1 = append(v1, comp.Bytes()...)
	r := NewReader(bytes.NewReader(v1))
	if _, err := r.Next(); !errors.Is(err, block.ErrVersion) {
		t.Errorf("v1 stream: got %v, want block.ErrVersion", err)
	}
	if _, err := r.Next(); !errors.Is(err, block.ErrVersion) {
		t.Errorf("version error not sticky: %v", err)
	}
}

// TestSteadyStateAllocs: the codec state lives in the Writer and Reader,
// so once each has handled a block, further jframes — through several more
// blocks — allocate nothing: the writer appends into reused storage, and
// the reader's frames come from and go back to the unify pool.
func TestSteadyStateAllocs(t *testing.T) {
	frames := synthFrames(6000, 11) // several blocks
	stream, _ := encodeStream(t, frames)
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	us := int64(0)
	// One run after AllocsPerRun's own warm-up run: an exact count.
	if n := testing.AllocsPerRun(1, func() {
		for _, j := range frames {
			// Keep the concatenated passes sorted.
			f := *j
			f.UnivUS += us
			if err := w.WriteJFrame(&f); err != nil {
				t.Fatal(err)
			}
		}
		us += frames[len(frames)-1].UnivUS
	}); n != 0 {
		t.Errorf("WriteJFrame: %v allocs per %d jframes, want 0", n, len(frames))
	}

	if raceEnabled {
		return
	}
	r := NewReader(bytes.NewReader(stream))
	if n := testing.AllocsPerRun(1, func() { // warm-up and run read half each
		for i := 0; i < len(frames)/2; i++ {
			j, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			j.Release()
		}
	}); n != 0 {
		t.Errorf("Reader.Next: %v allocs per %d jframes, want 0", n, len(frames)/2)
	}
}

// TestMergeHeapOrder: the concrete heap pops in (UnivUS, stream index)
// order under mixed pushes, pops and root updates — the one property the
// Merger needs from it.
func TestMergeHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h mergeHeap
	var want []mergeHead
	less := func(a, b mergeHead) bool { return a.us < b.us || a.us == b.us && a.idx < b.idx }
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(4); {
		case op < 2 || len(h) == 0:
			it := mergeHead{us: int64(rng.Intn(50)), idx: i}
			h.push(it)
			want = append(want, it)
		case op == 2:
			sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
			if got := h[0]; got != want[0] {
				t.Fatalf("step %d: root %+v, want %+v", i, got, want[0])
			}
			h.popMin()
			want = want[1:]
		default: // the Merger's move: advance the root's key in place
			sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
			h[0].us += int64(rng.Intn(20))
			want[0].us = h[0].us
			h.fixMin()
		}
	}
	sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
	for _, w := range want {
		if got := h[0]; got != w {
			t.Fatalf("drain: root %+v, want %+v", got, w)
		}
		h.popMin()
	}
}
