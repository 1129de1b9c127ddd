//go:build darwin || dragonfly || freebsd || openbsd

package persist

import (
	"os"
	"syscall"
	"unsafe"
)

// preallocate makes the log file at least size bytes long.
func preallocate(f *os.File, size int64) error { return extend(f, size) }

// mapFile maps the first size bytes of f, shared and writable.
func mapFile(f *os.File, size int64) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	return data, os.NewSyscallError("mmap", err)
}

// unmapFile undoes mapFile.
func unmapFile(data []byte) error { return os.NewSyscallError("munmap", syscall.Munmap(data)) }

// flushMapping schedules the write-back of the pages stored into the
// mapping, which the fsync that follows waits for.
func flushMapping(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC, uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)), syscall.MS_ASYNC)
	if errno != 0 {
		return os.NewSyscallError("msync", errno)
	}
	return nil
}
