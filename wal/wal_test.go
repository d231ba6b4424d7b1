package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func entry(seq uint32) Entry {
	return Entry{Seq: seq, Payload: []byte(fmt.Sprintf("payload-%d", seq))}
}

// replayAll recovers a log into memory.
func replayAll(t *testing.T, l *Log) (snapshot []byte, snapSeq uint32, entries []Entry, last uint32) {
	t.Helper()
	last, err := l.Recover(func(snap []byte, seq uint32) error {
		snapshot = append([]byte(nil), snap...)
		snapSeq = seq
		return nil
	}, func(e Entry) error {
		entries = append(entries, e)
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return snapshot, snapSeq, entries, last
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Batch-aware appends, with a seq gap (membership events are ordered
	// but not journaled).
	if err := l.Append([]Entry{entry(1), entry(2), entry(3)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Append([]Entry{entry(5)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, _, entries, last := replayAll(t, l2)
	if snap != nil {
		t.Fatalf("unexpected snapshot %q", snap)
	}
	if last != 5 || len(entries) != 4 {
		t.Fatalf("recovered last=%d entries=%d, want 5 and 4", last, len(entries))
	}
	for i, want := range []uint32{1, 2, 3, 5} {
		if entries[i].Seq != want || string(entries[i].Payload) != fmt.Sprintf("payload-%d", want) {
			t.Fatalf("entry %d = %d %q", i, entries[i].Seq, entries[i].Payload)
		}
	}
	// Appends continue past the recovered tail.
	if err := l2.Append([]Entry{entry(5)}); err == nil {
		t.Fatal("append at recovered seq should be out of order")
	}
	if err := l2.Append([]Entry{entry(6)}); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Append([]Entry{entry(2), entry(1)}); err == nil {
		t.Fatal("descending batch accepted")
	}
	if err := l.Append([]Entry{entry(3)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Append([]Entry{entry(3)}); err == nil {
		t.Fatal("duplicate seq accepted")
	}
}

func TestCheckpointBoundsReplayAndTruncates(t *testing.T) {
	dir := t.TempDir()
	// Small segments so checkpoints have something to delete.
	l, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 40; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	if err := l.Checkpoint(30, 0, []byte("state@30")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if l.Stats().SegmentsRemoved == 0 {
		t.Fatal("checkpoint deleted no dead segments")
	}
	for seq := uint32(41); seq <= 45; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, snapSeq, entries, last := replayAll(t, l2)
	if string(snap) != "state@30" || snapSeq != 30 {
		t.Fatalf("snapshot %q @%d, want state@30 @30", snap, snapSeq)
	}
	if last != 45 {
		t.Fatalf("recovered last=%d, want 45", last)
	}
	if len(entries) == 0 || entries[0].Seq != 31 || entries[len(entries)-1].Seq != 45 {
		t.Fatalf("replayed suffix %d..%d (%d entries), want 31..45",
			entries[0].Seq, entries[len(entries)-1].Seq, len(entries))
	}
	// The newest checkpoint plus its predecessor survive (ckptRetain), so
	// a digest-refused checkpoint has something to fall back to; a third
	// checkpoint evicts the oldest.
	if err := l2.Checkpoint(45, 0, []byte("state@45")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	countCkpts := func() int {
		names, _ := os.ReadDir(dir)
		n := 0
		for _, de := range names {
			if strings.HasPrefix(de.Name(), ckptPrefix) {
				n++
			}
		}
		return n
	}
	if got := countCkpts(); got != ckptRetain {
		t.Fatalf("%d checkpoint files, want %d (newest + fallback)", got, ckptRetain)
	}
	if err := l2.Append([]Entry{entry(46)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l2.Checkpoint(46, 0, []byte("state@46")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := countCkpts(); got != ckptRetain {
		t.Fatalf("after third checkpoint: %d files, want %d", got, ckptRetain)
	}
}

// TestTornTailRecovery is the crash-mid-write case: a log segment truncated
// in the middle of a record must replay cleanly up to the last complete
// entry — the checksum guard — and the reopened log must accept appends.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 10; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	// Tear the tail: chop the final record mid-body.
	seg := filepath.Join(dir, segName(0))
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(seg, buf[:len(buf)-7], 0o644); err != nil {
		t.Fatalf("tear segment: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if !l2.Stats().TailTruncated {
		t.Fatal("torn tail not detected")
	}
	_, _, entries, last := replayAll(t, l2)
	if last != 9 || len(entries) != 9 || entries[len(entries)-1].Seq != 9 {
		t.Fatalf("recovered last=%d entries=%d, want stop at 9", last, len(entries))
	}
	// The log is usable again: seq 10 was lost, so it is re-appendable.
	if err := l2.Append([]Entry{entry(10), entry(11)}); err != nil {
		t.Fatalf("Append after torn recovery: %v", err)
	}
	l2.Close()

	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	_, _, entries, last = replayAll(t, l3)
	if last != 11 || len(entries) != 11 {
		t.Fatalf("after re-append: last=%d entries=%d, want 11 and 11", last, len(entries))
	}
}

// TestCorruptRecordStopsReplay flips payload bytes inside a sealed record;
// the CRC must reject it and replay must stop there rather than deliver
// garbage.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 6; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	seg := filepath.Join(dir, segName(0))
	buf, _ := os.ReadFile(seg)
	// Records are identical length here; corrupt one near the middle.
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatalf("corrupt segment: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen corrupt: %v", err)
	}
	defer l2.Close()
	_, _, entries, _ := replayAll(t, l2)
	if len(entries) == 0 || len(entries) >= 6 {
		t.Fatalf("replayed %d entries, want a strict prefix stopped at the corruption", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint32(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append([]Entry{entry(1), entry(2)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Checkpoint(2, 0, []byte("good@2")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()

	// Forge a newer, corrupt checkpoint: recovery must ignore it and use
	// the valid older one.
	bad := make([]byte, 8+4)
	binary.BigEndian.PutUint32(bad[4:], 9)
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), bad, 0o644); err != nil {
		t.Fatalf("forge checkpoint: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, snapSeq, _, _ := replayAll(t, l2)
	if string(snap) != "good@2" || snapSeq != 2 {
		t.Fatalf("recovered snapshot %q @%d, want good@2 @2", snap, snapSeq)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(9))); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint not removed")
	}
	// The corrupt checkpoint's filename must not have inflated lastSeq:
	// the log continues right after what was actually recovered.
	if got := l2.LastSeq(); got != 2 {
		t.Fatalf("LastSeq = %d after discarding the forged checkpoint, want 2", got)
	}
	if err := l2.Append([]Entry{entry(3)}); err != nil {
		t.Fatalf("append after discarding forged checkpoint: %v", err)
	}
}

func TestResetDropsOldTimeline(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 20; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// A rejoin installs a transferred snapshot at seq 12: entries 13..20 are
	// from the dead timeline and must not survive.
	if err := l.Reset(12, 0, []byte("xfer@12")); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := l.Stats().ResetDiscarded; got != 8 {
		t.Fatalf("ResetDiscarded = %d, want 8 (entries 13..20 given up)", got)
	}
	if err := l.Append([]Entry{entry(13)}); err != nil {
		t.Fatalf("Append after reset: %v", err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, snapSeq, entries, last := replayAll(t, l2)
	if string(snap) != "xfer@12" || snapSeq != 12 {
		t.Fatalf("snapshot %q @%d, want xfer@12 @12", snap, snapSeq)
	}
	if len(entries) != 1 || entries[0].Seq != 13 || last != 13 {
		t.Fatalf("replayed %v last=%d, want only the new seq-13 entry", entries, last)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	for seq := uint32(1); seq <= 50; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	names, _ := os.ReadDir(dir)
	segs := 0
	for _, de := range names {
		if strings.HasPrefix(de.Name(), segPrefix) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("%d segments after 50 appends at 128-byte segments, want several", segs)
	}
	_, _, entries, last := replayAll(t, l)
	if last != 50 || len(entries) != 50 {
		t.Fatalf("recovered last=%d entries=%d, want 50/50", last, len(entries))
	}
}

// TestCheckpointDue holds the checkpoint rule: nothing is due below one
// segment of record bytes since the last checkpoint, one is due once they
// reach max(segment, checkpointRatio × that checkpoint's snapshot), and both
// Checkpoint and Reset start the count afresh.
func TestCheckpointDue(t *testing.T) {
	const segment = 256
	l, err := Open(t.TempDir(), Options{SegmentSize: segment})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	seq := uint32(0)
	// appendUntilDue appends one-entry records, checking after each that a
	// checkpoint is due exactly when the record bytes reach threshold.
	appendUntilDue := func(threshold int) {
		t.Helper()
		for written := 0; written < threshold; {
			seq++
			e := entry(seq)
			if err := l.Append([]Entry{e}); err != nil {
				t.Fatalf("Append: %v", err)
			}
			written += recordHeaderSize + recordBodyFixed + 4 + 1 + len(e.Payload)
			if due := l.CheckpointDue(); due != (written >= threshold) {
				t.Fatalf("after %d record bytes CheckpointDue = %v, want it due from %d", written, due, threshold)
			}
		}
	}
	if l.CheckpointDue() {
		t.Fatal("a checkpoint is due on a fresh log")
	}
	appendUntilDue(segment)

	// A snapshot small against the segment: the floor decides.
	if err := l.Checkpoint(seq, 0, make([]byte, 10)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if l.CheckpointDue() {
		t.Fatal("a checkpoint is due right after one")
	}
	appendUntilDue(segment)

	// A snapshot past a quarter segment: the ratio decides.
	if err := l.Checkpoint(seq, 0, make([]byte, 100)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	appendUntilDue(checkpointRatio * 100)

	if err := l.Reset(seq+10, 0, make([]byte, 10)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.CheckpointDue() {
		t.Fatal("a checkpoint is due right after a Reset")
	}
	seq += 10
	appendUntilDue(segment)
}

func TestEmptyAndFreshLogs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap, _, entries, last := replayAll(t, l)
	if snap != nil || len(entries) != 0 || last != 0 {
		t.Fatalf("fresh log recovered snap=%v entries=%d last=%d", snap, len(entries), last)
	}
	if err := l.Append(nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	l.Close()
	if err := l.Append([]Entry{entry(1)}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestSyncOption(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	for seq := uint32(1); seq <= 5; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("synced append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestSyncSyncsEveryAppend: under Sync each append record is fsynced once,
// however many entries it carries — a replica's apply-loop burst is its
// group commit.
func TestSyncSyncsEveryAppend(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	const n = 8
	for seq := uint32(1); seq <= n; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if st := l.Stats(); st.Syncs != n {
		t.Fatalf("syncs=%d, want %d (one per append)", st.Syncs, n)
	}
}

// faultFS is the operating system's file system with one scripted fault:
// the at'th (0-based) call of op — "write" or "sync" — on a file whose name
// holds match fails the real call the way a failing disk does. A failing
// write lands torn (half its bytes, then the error) or, when torn is false,
// nothing at all: the disk is full.
type faultFS struct {
	osFS
	op, match string
	at        int
	torn      bool
	seen      *int
}

func newFaultFS(op, match string, at int, torn bool) faultFS {
	return faultFS{op: op, match: match, at: at, torn: torn, seen: new(int)}
}

func (f faultFS) OpenAppend(name string) (File, error) { return f.wrap(f.osFS.OpenAppend(name)) }
func (f faultFS) Create(name string) (File, error)     { return f.wrap(f.osFS.Create(name)) }

func (f faultFS) wrap(file File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return faultFile{File: file, fs: f, name: file.(*os.File).Name()}, nil
}

// fails reports whether this call of op on name is the scripted one.
func (f faultFS) fails(op, name string) bool {
	if op != f.op || !strings.Contains(filepath.Base(name), f.match) {
		return false
	}
	*f.seen++
	return *f.seen-1 == f.at
}

type faultFile struct {
	File
	fs   faultFS
	name string
}

func (f faultFile) Write(p []byte) (int, error) {
	if !f.fs.fails("write", f.name) {
		return f.File.Write(p)
	}
	if !f.fs.torn {
		return 0, syscall.ENOSPC
	}
	n, _ := f.File.Write(p[:len(p)/2])
	return n, syscall.EIO
}

func (f faultFile) Sync() error {
	if f.fs.fails("sync", f.name) {
		return syscall.EIO
	}
	return f.File.Sync()
}

// TestInjectedDiskFullPoisonsUntilReopen: a write that finds the disk full
// lands nothing, but the log still refuses every later append — one failure
// rule for every failed write — and a reopened log carries on.
func TestInjectedDiskFullPoisonsUntilReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: newFaultFS("write", segPrefix, 1, false)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append([]Entry{entry(1)}); err != nil {
		t.Fatalf("Append 1: %v", err)
	}
	if err := l.Append([]Entry{entry(2)}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append 2 = %v, want ENOSPC", err)
	}
	if err := l.Append([]Entry{entry(2)}); !errors.Is(err, ErrPoisoned) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("retry after disk full = %v, want ErrPoisoned wrapping ENOSPC", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TailTruncated {
		t.Fatal("a write that landed nothing left a tail to truncate")
	}
	_, _, entries, last := replayAll(t, l2)
	if last != 1 || len(entries) != 1 {
		t.Fatalf("recovered last=%d entries=%d, want 1 and 1", last, len(entries))
	}
	if err := l2.Append([]Entry{entry(2)}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
}

func TestInjectedTornWritePoisonsUntilReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: newFaultFS("write", segPrefix, 1, true)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append([]Entry{entry(1)}); err != nil {
		t.Fatalf("Append 1: %v", err)
	}
	if err := l.Append([]Entry{entry(2)}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn Append = %v, want EIO", err)
	}
	// The partial record is on disk; every later append must refuse, or
	// replay (which stops at the first invalid record) would silently lose
	// it.
	if err := l.Append([]Entry{entry(3)}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after torn write = %v, want ErrPoisoned", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen truncates the torn tail and the log starts clean.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if st := l2.Stats(); !st.TailTruncated {
		t.Fatal("reopen should report TailTruncated")
	}
	_, _, entries, last := replayAll(t, l2)
	if last != 1 || len(entries) != 1 {
		t.Fatalf("recovered last=%d entries=%d, want 1 and 1", last, len(entries))
	}
	if err := l2.Append([]Entry{entry(2)}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
}

func TestInjectedCheckpointFailureKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: newFaultFS("write", ckptPrefix, 1, false)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append([]Entry{entry(1), entry(2)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Checkpoint(2, 0, []byte("snap-2")); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	if err := l.Append([]Entry{entry(3)}); err != nil {
		t.Fatalf("Append 3: %v", err)
	}
	if err := l.Checkpoint(3, 0, []byte("snap-3")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Checkpoint 3 = %v, want ENOSPC", err)
	}
	if got := l.CheckpointSeq(); got != 2 {
		t.Fatalf("CheckpointSeq = %d, want 2 (previous stays in force)", got)
	}
	if err := l.Append([]Entry{entry(4)}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after a failed checkpoint = %v, want ErrPoisoned", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, snapSeq, entries, last := replayAll(t, l2)
	if string(snap) != "snap-2" || snapSeq != 2 {
		t.Fatalf("recovered snapshot %q at %d, want snap-2 at 2", snap, snapSeq)
	}
	if last != 3 || len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("recovered last=%d entries=%v, want 3 and [3]", last, entries)
	}
}

// TestInjectedSyncFailurePoisonsUntilReopen: after a failed fsync the page
// cache no longer says what is on the disk, so the append that asked for it
// fails and so does every later one, though its record may have landed.
func TestInjectedSyncFailurePoisonsUntilReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: true, FS: newFaultFS("sync", segPrefix, 0, false)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append([]Entry{entry(1)}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append = %v, want EIO from the failed fsync", err)
	}
	if got := l.LastSeq(); got != 1 {
		t.Fatalf("LastSeq = %d after a written but unsynced record, want 1", got)
	}
	if err := l.Append([]Entry{entry(2)}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append 2 = %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Sync = %v, want ErrPoisoned", err)
	}
	l.Close()
	l2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	_, _, entries, last := replayAll(t, l2)
	if err := l2.Append([]Entry{entry(last + 1)}); err != nil || len(entries) != int(last) {
		t.Fatalf("after reopen: recovered %d entries to %d, append: %v", len(entries), last, err)
	}
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	return l.poison(l.syncActive())
}
