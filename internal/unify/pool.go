// Pooled jframe lifecycle: the explicit-ownership half of the zero-copy
// data plane.
//
// # Frame ownership
//
// Every *JFrame produced by Unifier.Next (and by the hmerge reader) is
// POOLED: it starts with one ownership reference held by the caller, and
// when the last reference is dropped the frame's storage (Wire buffer,
// Instances) is recycled for the next frame. The rules:
//
//   - The receiver of a frame OWNS one reference and must call Release
//     exactly once when done with it.
//   - Handing a frame to another long-lived holder requires Retain (one
//     per additional holder), each balanced by its own Release.
//   - Observers that only look at a frame during a call (analysis passes,
//     sinks) BORROW it: no Retain needed, but no field may be kept past
//     the call — copy out (or Retain) to keep anything.
//   - After your Release, every pointer into the frame (Wire, Frame.Body,
//     Instances) is invalid: the buffers will be rewritten by a future
//     frame.
//
// Frames built as plain literals (&JFrame{...}) are never recycled;
// Retain/Release are safe no-ops on them, so generic code need not care
// how a frame was built.
package unify

import (
	"sync"
	"sync/atomic"

	"repro/internal/dot80211"
)

var jframePool = sync.Pool{New: func() any { return new(JFrame) }}

// frameCount tallies pooled frames handed out and recycled. Frames are
// mostly handed out on one goroutine (the stream stage) and recycled on
// another (the last consumer), so the two tallies sit on separate cache
// lines and neither add is contended.
var frameCount struct {
	gets atomic.Int64
	_    [56]byte
	puts atomic.Int64
}

// LiveJFrames returns how many pooled frames are currently owned by someone:
// handed out by NewJFrame (directly or through the hmerge reader) and not yet
// recycled by their last Release. A pipeline that has shut down cleanly —
// or unwound after an error — and kept nothing reads the value it started
// at; a higher one is a leaked reference.
func LiveJFrames() int64 { return frameCount.gets.Load() - frameCount.puts.Load() }

// NewJFrame returns a pooled, zeroed jframe owned by the caller: the
// caller holds its single ownership reference and must balance it with
// Release.
func NewJFrame() *JFrame {
	j := jframePool.Get().(*JFrame)
	frameCount.gets.Add(1)
	atomic.StoreInt32(&j.refs, 1)
	j.pooled = true
	return j
}

// Retain adds an ownership reference; the frame will not be recycled
// until every reference has been Released.
func (j *JFrame) Retain() { atomic.AddInt32(&j.refs, 1) }

// Release drops one ownership reference. Dropping the last reference of a
// pooled frame recycles its storage — the frame and everything it points
// to (Wire, Frame.Body, Instances) must not be touched afterwards.
// Safe on literal-built frames, which are never recycled.
func (j *JFrame) Release() {
	if atomic.AddInt32(&j.refs, -1) != 0 || !j.pooled {
		return
	}
	wire := j.wireBuf[:0]
	inst := j.Instances[:0]
	*j = JFrame{}
	j.wireBuf = wire
	j.Instances = inst
	frameCount.puts.Add(1)
	jframePool.Put(j)
}

// SetWire copies b into the frame's owned buffer and points Wire at it,
// so the frame stays valid after b's backing storage is reused. Callers
// filling a pooled frame from a transient block buffer (the hmerge
// reader) must use this rather than aliasing the buffer.
func (j *JFrame) SetWire(b []byte) {
	if len(b) == 0 {
		j.Wire = nil
		return
	}
	j.wireBuf = append(j.wireBuf[:0], b...)
	j.Wire = j.wireBuf
}

// rebaseBody re-points Frame.Body into the frame's own Wire copy. src is
// the decode of the original buffer Wire was copied from.
func (j *JFrame) rebaseBody(src *dot80211.Frame) {
	if src.Body == nil {
		return
	}
	off := src.BodyOffset()
	j.Frame.Body = j.Wire[off : off+len(src.Body)]
}
