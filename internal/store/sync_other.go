//go:build !linux

package store

import "os"

// Datasync falls back to a full fsync on platforms without fdatasync.
func Datasync(f *os.File) error {
	return f.Sync()
}
