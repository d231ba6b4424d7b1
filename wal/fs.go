package wal

import (
	"io/fs"
	"os"
)

// FS is the file system a log does all its I/O through; Options.FS nil is
// the operating system's. A test substitutes an in-memory one to enumerate
// the states a crash can leave on disk, or wraps one to fail calls the way a
// failing disk does: every fault then takes the path a real one takes.
type FS interface {
	// OpenAppend opens name for appending, creating it if it is absent.
	OpenAppend(name string) (File, error)
	// Create opens name for writing, truncating or creating it.
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir returns the names in dir, in any order.
	ReadDir(dir string) ([]string, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(dir string) error
	// SyncDir makes the creations, renames and removals in dir durable.
	SyncDir(dir string) error
}

// File is an open file of an FS.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Stat() (fs.FileInfo, error)
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

// OpenAppend and Create return a nil *os.File with an error; the log never
// looks at a file whose open failed.
func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) ReadDir(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) MkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }
