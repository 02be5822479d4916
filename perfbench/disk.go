package main

import (
	"errors"
	"io"
	"os"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/chaos"
)

// Disk is a modelled journal disk whose every fsync costs the same fixed
// delay, serialized per disk as one device queue would serialize them.
// It keeps no file contents and makes no per-flush copy, so its own cost
// does not grow with the journal the way chaos.MemFS's does (MemFS copies
// the whole file on every Sync to model its crash semantics). Files on it
// can be written and synced but never read back: it suits journals the
// benchmark does not reopen. Wrap it in a tapFS to count what it does.
type Disk struct {
	fsync  time.Duration
	syncMu sync.Mutex // one fsync at a time, like one device queue
}

// NewDisk returns a disk whose fsyncs each take d.
func NewDisk(d time.Duration) *Disk { return &Disk{fsync: d} }

var _ chaos.FS = (*Disk)(nil)

// DiskStats is a snapshot of a tapFS's accounting.
type DiskStats struct {
	Syncs   int64
	Busy    time.Duration // wall time spent inside fsyncs
	Written int64         // bytes written
}

func (s DiskStats) sub(o DiskStats) DiskStats {
	return DiskStats{Syncs: s.Syncs - o.Syncs, Busy: s.Busy - o.Busy, Written: s.Written - o.Written}
}

func (s DiskStats) add(o DiskStats) DiskStats {
	return DiskStats{Syncs: s.Syncs + o.Syncs, Busy: s.Busy + o.Busy, Written: s.Written + o.Written}
}

// OpenFile implements chaos.FS. Every open starts an empty file: nothing
// written earlier is kept.
func (d *Disk) OpenFile(string, int, os.FileMode) (chaos.File, error) {
	return &diskFile{disk: d}, nil
}

// Rename implements chaos.FS.
func (d *Disk) Rename(string, string) error { return nil }

// Remove implements chaos.FS.
func (d *Disk) Remove(string) error { return nil }

func (d *Disk) sync() {
	d.syncMu.Lock()
	time.Sleep(d.fsync)
	d.syncMu.Unlock()
}

// diskFile tracks only the size and offset a writer needs.
type diskFile struct {
	disk *Disk

	mu   sync.Mutex
	size int64
	pos  int64
}

func (f *diskFile) Read([]byte) (int, error) { return 0, io.EOF }

func (f *diskFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.pos += int64(len(p))
	if f.pos > f.size {
		f.size = f.pos
	}
	f.mu.Unlock()
	return len(p), nil
}

func (f *diskFile) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += f.size
	default:
		return 0, errors.New("disk: bad whence")
	}
	if offset < 0 {
		return 0, errors.New("disk: negative offset")
	}
	f.pos = offset
	return offset, nil
}

func (f *diskFile) Sync() error {
	f.disk.sync()
	return nil
}

func (f *diskFile) Truncate(size int64) error {
	f.mu.Lock()
	f.size = size
	f.mu.Unlock()
	return nil
}

func (f *diskFile) Close() error { return nil }
