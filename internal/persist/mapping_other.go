//go:build !linux && !windows && !darwin && !dragonfly && !freebsd && !openbsd

package persist

import (
	"errors"
	"os"
)

// The log is written through a shared mapping of its file, which this
// platform's syscall package does not offer with a way to flush it: a
// state dir still recovers, but the first record fails the manager
// with a sticky error.

func preallocate(f *os.File, size int64) error { return extend(f, size) }

func mapFile(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) error { return nil }

func flushMapping([]byte) error { return nil }
