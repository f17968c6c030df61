package hmerge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// BootstrapMeta is a building's bootstrap result in sidecar form: the
// per-radio universal-time offsets the global merge needs to aggregate a
// campus-level timesync.Result without re-running the bootstrap.
type BootstrapMeta struct {
	// OffsetUS maps radio → T_i such that universal = local + T_i.
	OffsetUS map[int32]int64
	// Root anchors the building's universal time (T_root = 0).
	Root int32
	// Unsynced lists radios with no path to the root.
	Unsynced []int32 `json:",omitempty"`
	// RefFrames and Candidates carry the bootstrap's reference-frame
	// accounting through to campus-level reports.
	RefFrames  int
	Candidates int
}

// Meta is the intermediate stream's metadata sidecar: everything the global
// merge needs to know about a building's stream without decoding it —
// roster, record count, the stream's time span (LastUnivUS doubles as the
// building's watermark), and the per-building unify/bootstrap accounting
// that aggregates into the campus result.
type Meta struct {
	// Building labels the stream (typically its source directory's name).
	Building string `json:",omitempty"`
	// Radios lists every radio present in the building's trace directory.
	Radios []int32
	// JFrames counts serialized records.
	JFrames int64
	// FirstUnivUS/LastUnivUS bound the stream's universal-time span;
	// LastUnivUS is the stream's watermark (streams are sorted, so no
	// record past the end precedes it).
	FirstUnivUS int64
	LastUnivUS  int64
	// Unify carries the building's unification stats.
	Unify unify.Stats
	// Bootstrap carries the building's synchronization result.
	Bootstrap BootstrapMeta
}

// MetaPath names a stream's metadata sidecar.
func MetaPath(streamPath string) string { return streamPath + ".json" }

// WriteMetaFile writes a stream's metadata sidecar.
func WriteMetaFile(path string, m *Meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("hmerge: encode meta: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("hmerge: write meta: %w", err)
	}
	return nil
}

// ReadMetaFile reads a stream's metadata sidecar.
func ReadMetaFile(path string) (*Meta, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hmerge: read meta: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("hmerge: parse meta %s: %w", path, err)
	}
	return &m, nil
}

// UnifyConfig tunes a per-building unify worker.
type UnifyConfig struct {
	// Unify holds the unifier's operating point; zero value takes the
	// defaults.
	Unify unify.Config
	// BootstrapWindowUS is how much of each trace the bootstrap examines
	// (0: the paper's first second).
	BootstrapWindowUS int64
	// Workers parallelizes the bootstrap pre-scan (0: GOMAXPROCS).
	// Unification itself is inherently serial per building — cross-building
	// parallelism comes from running one worker per building.
	Workers int
}

// Unify runs one building's bootstrap + unification and serializes the
// unifier's stream, already in the format's time order, to w. This is
// exactly the front half of core.RunFrom — same pre-scan
// (timesync.BootstrapSet), same sources (unify.TraceSources), same unifier,
// same stream — with the reconstruction stages replaced by the codec, so the
// jframes a hierarchical run merges back are the jframes a flat run would
// have seen, in the same order.
// Unification is deterministic, which makes the serialized bytes
// deterministic too: any worker, in any process, produces the identical
// file for the same inputs.
func Unify(ts *tracefile.TraceSet, clockGroups [][]int32, cfg UnifyConfig, w io.Writer) (*Meta, error) {
	if ts == nil || ts.Len() == 0 {
		return nil, fmt.Errorf("hmerge: no traces")
	}
	if cfg.BootstrapWindowUS == 0 {
		cfg.BootstrapWindowUS = timesync.DefaultWindowUS
	}
	if cfg.Unify.SearchWindowUS == 0 {
		cfg.Unify = unify.DefaultConfig()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	boot, err := timesync.BootstrapSet(ts, clockGroups, cfg.BootstrapWindowUS, workers)
	if err != nil {
		return nil, fmt.Errorf("hmerge: %w", err)
	}

	// Unify and serialize.
	sources, sourceFault := unify.TraceSources(ts)
	u := unify.New(cfg.Unify, sources, boot)
	wtr, err := NewWriter(w)
	if err != nil {
		return nil, err
	}
	for {
		j, err := u.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("hmerge: unify: %w", err)
		}
		err = wtr.WriteJFrame(j)
		// The writer has copied everything it needs.
		j.Release()
		if err != nil {
			return nil, err
		}
	}
	if err := wtr.Close(); err != nil {
		return nil, err
	}
	if err := sourceFault(); err != nil {
		return nil, fmt.Errorf("hmerge: %w", err)
	}
	return &Meta{
		Radios:      ts.Radios(),
		JFrames:     wtr.JFrames,
		FirstUnivUS: wtr.FirstUnivUS,
		LastUnivUS:  wtr.WatermarkUS,
		Unify:       u.Stats,
		Bootstrap:   BootstrapMeta(*boot),
	}, nil
}

// UnifyDir is Unify over a trace directory, writing the stream to outPath
// and its metadata sidecar next to it. The stream is labeled with the
// source directory's base name.
func UnifyDir(srcDir, outPath string, clockGroups [][]int32, cfg UnifyConfig) (*Meta, error) {
	ts, err := tracefile.OpenDir(srcDir)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, fmt.Errorf("hmerge: create stream: %w", err)
	}
	bw := bufio.NewWriterSize(f, 128*1024)
	meta, err := Unify(ts, clockGroups, cfg, bw)
	if err != nil {
		_ = f.Close() // error-path cleanup; the unify error wins
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // error-path cleanup; the flush error wins
		return nil, fmt.Errorf("hmerge: flush stream: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("hmerge: close stream: %w", err)
	}
	meta.Building = filepath.Base(srcDir)
	if err := WriteMetaFile(MetaPath(outPath), meta); err != nil {
		return nil, err
	}
	return meta, nil
}
