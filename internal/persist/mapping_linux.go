package persist

import (
	"errors"
	"os"
	"syscall"
)

// preallocate makes the log file at least size bytes long, in blocks
// the filesystem has allocated, so a store into the mapping never meets
// a full disk: that fails here instead, as an error. A filesystem that
// cannot preallocate gets a sparse extension.
func preallocate(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		return extend(f, size)
	}
	return os.NewSyscallError("fallocate", err)
}

// mapFile maps the first size bytes of f, shared and writable.
func mapFile(f *os.File, size int64) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	return data, os.NewSyscallError("mmap", err)
}

// unmapFile undoes mapFile.
func unmapFile(data []byte) error { return os.NewSyscallError("munmap", syscall.Munmap(data)) }

// flushMapping hands what was stored into the mapping to the file, for
// an fsync on it to write back. On Linux the stores are already the
// file's page cache, which fsync writes back.
func flushMapping([]byte) error { return nil }
