//go:build linux

package tracefile

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// mmapOpen maps path read-only and returns a zero-copy byte stream over
// the mapping. ok=false with a nil error means the file could not be
// mapped (caller should fall back to buffered reads); a non-nil error is
// a real open/stat/close failure worth surfacing.
func mmapOpen(path string) (io.ReadCloser, bool, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	st, err := fh.Stat()
	if err != nil {
		if cerr := fh.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, false, err
	}
	size := st.Size()
	if size == 0 {
		// mmap rejects zero-length mappings; an empty trace is just EOF.
		if cerr := fh.Close(); cerr != nil {
			return nil, false, cerr
		}
		return &byteStream{}, true, nil
	}
	if size != int64(int(size)) {
		if cerr := fh.Close(); cerr != nil {
			return nil, false, cerr
		}
		return nil, false, nil
	}
	data, merr := syscall.Mmap(int(fh.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	// The mapping (when it succeeded) outlives the descriptor.
	if cerr := fh.Close(); cerr != nil {
		if merr == nil {
			_ = syscall.Munmap(data)
		}
		return nil, false, cerr
	}
	if merr != nil {
		return nil, false, nil
	}
	return &byteStream{
		b:     data,
		close: func() error { return syscall.Munmap(data) },
		// A failed madvise only leaves the pages resident.
		drop: func(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) },
	}, true, nil
}
