package persist

import (
	"os"
	"syscall"
	"unsafe"
)

// preallocate makes the log file at least size bytes long. The file is
// never mapped here: Windows extends a mapped file no more than it
// renames or truncates one.
func preallocate(f *os.File, size int64) error { return extend(f, size) }

// mapFile maps the first size bytes of f, shared and writable. The view
// keeps the mapping object alive, so its handle is closed at once.
func mapFile(f *os.File, size int64) ([]byte, error) {
	h, err := syscall.CreateFileMapping(syscall.Handle(f.Fd()), nil, syscall.PAGE_READWRITE, uint32(size>>32), uint32(size), nil)
	if err != nil {
		return nil, os.NewSyscallError("CreateFileMapping", err)
	}
	defer syscall.CloseHandle(h)
	addr, err := syscall.MapViewOfFile(h, syscall.FILE_MAP_WRITE, 0, 0, uintptr(size))
	if err != nil {
		return nil, os.NewSyscallError("MapViewOfFile", err)
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(addr)), size), nil
}

// unmapFile undoes mapFile.
func unmapFile(data []byte) error {
	return os.NewSyscallError("UnmapViewOfFile", syscall.UnmapViewOfFile(uintptr(unsafe.Pointer(&data[0]))))
}

// flushMapping starts writing the view's dirty pages to the file, which
// FlushFileBuffers — the fsync that follows — makes durable.
func flushMapping(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return os.NewSyscallError("FlushViewOfFile", syscall.FlushViewOfFile(uintptr(unsafe.Pointer(&data[0])), uintptr(len(data))))
}
