package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"amoeba/internal/bufpool"
)

// allocatedBy reports the heap bytes f allocates. The count is the whole
// process's, so a straggler goroutine can add to it: the least of three
// readings is taken before a bound is called broken.
func allocatedBy(bound uint64, f func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3 && (try == 0 || least > bound); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// recovered is what a recovery handed its callbacks.
type recovered struct {
	snap    []byte
	snapSeq uint32
	entries []Entry
}

// recoverDir opens the log in dir and recovers it, returning what recovery
// delivered, or ok false when Open or recovery failed.
func recoverDir(dir string) (got recovered, ok bool) {
	l, err := Open(dir, Options{})
	if err != nil {
		return got, false
	}
	defer l.Close()
	_, err = l.Recover(func(snap []byte, seq uint32) error {
		got.snap, got.snapSeq = snap, seq
		return nil
	}, func(e Entry) error {
		got.entries = append(got.entries, e)
		return nil
	}, nil)
	return got, err == nil
}

// sameEntries reports whether a and b hold the same seqs and payloads (an
// empty payload recovers as an empty slice, whatever was appended).
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// recoverOnce writes b as file name into one fresh log directory per try of
// allocatedBy, ahead of the measurement, and returns the next directory on
// each call: recovery rewrites what it finds (it truncates a torn tail and
// deletes a bad checkpoint), so a second try must not see the first's result.
func recoverOnce(t *testing.T, name string, b []byte) func() string {
	var dirs []string
	for try := 0; try < 3; try++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	return func() string {
		dir := dirs[0]
		dirs = dirs[1:]
		return dir
	}
}

// recoverSeeds builds the corpus from the writer itself: the segment and the
// checkpoint files Append and Checkpoint leave behind, with what each must
// recover to.
func recoverSeeds(t testing.TB) (segs map[string][]Entry, ckpts map[string]recovered) {
	segs, ckpts = make(map[string][]Entry), make(map[string]recovered)
	runs := [][][]Entry{
		{{entry(1)}},
		{{entry(1), entry(2), entry(3)}, {entry(5)}},
		{{{Seq: 7, Payload: nil}}, {{Seq: 9, Payload: make([]byte, 300)}}},
	}
	for _, run := range runs {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var want []Entry
		for _, batch := range run {
			if err := l.Append(batch); err != nil {
				t.Fatalf("Append: %v", err)
			}
			want = append(want, batch...)
		}
		l.Close()
		b, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		segs[string(b)] = want
	}
	for _, c := range []recovered{{snap: []byte{}, snapSeq: 0}, {snap: []byte("state"), snapSeq: 42}} {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := l.Checkpoint(c.snapSeq, 0, c.snap); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		l.Close()
		b, err := os.ReadFile(filepath.Join(dir, ckptName(c.snapSeq)))
		if err != nil {
			t.Fatal(err)
		}
		ckpts[string(b)] = c
	}
	return segs, ckpts
}

// FuzzRecover holds cold recovery — which reads whatever a crash, a bad disk
// or a stray file left in a log directory — to the contract of the kv
// decoders' targets. The bytes are recovered twice: as the log's only
// segment, and as its only checkpoint (named for the seq its header claims).
// Neither may panic, and neither may allocate more than a fixed multiple of
// the input's length. A segment Append wrote replays exactly its entries, a
// checkpoint Checkpoint wrote restores exactly its snapshot, and whatever
// entries any segment replays are replayed again, the same, once appended to
// a fresh log.
func FuzzRecover(f *testing.F) {
	segs, ckpts := recoverSeeds(f)
	for b := range segs {
		f.Add([]byte(b))
	}
	for b := range ckpts {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		bound := 64*uint64(len(b)) + 4096
		if bufpool.Poison {
			bound = math.MaxUint64 // the race detector's own allocations are counted
		}

		var seg recovered
		var ok bool
		segDir := recoverOnce(t, segName(0), b)
		if got := allocatedBy(bound, func() { seg, ok = recoverDir(segDir()) }); got > bound {
			t.Fatalf("recovering a %d-byte segment allocated %d", len(b), got)
		}
		if !ok {
			t.Fatalf("recovering a %d-byte segment failed", len(b))
		}
		if want, isSeed := segs[string(b)]; isSeed && !sameEntries(seg.entries, want) {
			t.Fatalf("an appended segment replays %v, want %v", seg.entries, want)
		}
		if len(seg.entries) > 0 {
			again := t.TempDir()
			l, err := Open(again, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(seg.entries); err != nil {
				t.Fatalf("re-appending %d replayed entries: %v", len(seg.entries), err)
			}
			l.Close()
			if re, _ := recoverDir(again); !sameEntries(re.entries, seg.entries) {
				t.Fatalf("replayed entries re-append and replay as %v, want %v", re.entries, seg.entries)
			}
		}

		var seq uint32
		if len(b) >= 8 {
			seq = binary.BigEndian.Uint32(b[4:])
		}
		ckptDir := recoverOnce(t, ckptName(seq), b)
		var ckpt recovered
		if got := allocatedBy(bound, func() { ckpt, ok = recoverDir(ckptDir()) }); got > bound {
			t.Fatalf("recovering a %d-byte checkpoint allocated %d", len(b), got)
		}
		if !ok {
			t.Fatalf("recovering a %d-byte checkpoint failed", len(b))
		}
		if want, isSeed := ckpts[string(b)]; isSeed && (!bytes.Equal(ckpt.snap, want.snap) || ckpt.snapSeq != want.snapSeq) {
			t.Fatalf("a written checkpoint restores %q at %d, want %q at %d", ckpt.snap, ckpt.snapSeq, want.snap, want.snapSeq)
		}
	})
}
