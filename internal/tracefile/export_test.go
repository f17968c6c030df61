package tracefile

import "io"

// mappedView returns what a stream opened by MmapSource maps and how much of
// it has been dropped behind the reader; ok is false for a stream that is not
// a mapping (a buffered file on platforms without mmap).
func mappedView(rc io.ReadCloser) (b []byte, dropped int, ok bool) {
	s, ok := rc.(*byteStream)
	if !ok || s.drop == nil {
		return nil, 0, false
	}
	return s.b, s.dropped, true
}
