package wal

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// memFS is an in-memory FS holding one directory. It records every mutating
// call and every fsync barrier, so the states a power cut could leave can be
// enumerated (crashStates), in the manner of ALICE (Pillai et al., OSDI 2014)
// and CrashMonkey (Mohan et al., OSDI 2018).
type memFS struct {
	dir     string
	entries map[string]*memInode // the directory as the running program sees it
	durable map[string]*memInode // as of the last SyncDir
	pending []dirOp              // entry operations since, in program order
	after   func()               // when non-nil, called after every mutating call
}

// memInode is a file. Its bytes as of its last Sync are durable; the
// operations since are pending.
type memInode struct {
	data, durable []byte
	pending       []fileOp
}

// fileOp is an append of write, or (write nil) a truncation to size.
type fileOp struct {
	write []byte
	size  int64
}

// dirOp creates name as ino, renames name to to, or (ino nil, to "") removes
// name.
type dirOp struct {
	name, to string
	ino      *memInode
}

func newMemFS(dir string) *memFS {
	return &memFS{dir: dir, entries: map[string]*memInode{}, durable: map[string]*memInode{}}
}

func (m *memFS) mutated() {
	if m.after != nil {
		m.after()
	}
}

func (m *memFS) name(path string) (string, error) {
	if filepath.Dir(path) != m.dir {
		return "", &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return filepath.Base(path), nil
}

func (m *memFS) lookup(op, path string) (string, *memInode, error) {
	name, err := m.name(path)
	if err != nil {
		return "", nil, err
	}
	ino := m.entries[name]
	if ino == nil {
		return "", nil, &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
	}
	return name, ino, nil
}

func (m *memFS) open(path string, trunc bool) (File, error) {
	name, err := m.name(path)
	if err != nil {
		return nil, err
	}
	ino := m.entries[name]
	switch {
	case ino == nil:
		ino = &memInode{}
		m.entries[name] = ino
		m.pending = append(m.pending, dirOp{name: name, ino: ino})
		m.mutated()
	case trunc:
		ino.apply(fileOp{size: 0})
		m.mutated()
	}
	return &memFile{fs: m, ino: ino}, nil
}

func (m *memFS) OpenAppend(path string) (File, error) { return m.open(path, false) }
func (m *memFS) Create(path string) (File, error)     { return m.open(path, true) }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	_, ino, err := m.lookup("read", path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), ino.data...), nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	if dir != m.dir {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	names := make([]string, 0, len(m.entries))
	for name := range m.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	name, ino, err := m.lookup("rename", oldpath)
	if err != nil {
		return err
	}
	to, err := m.name(newpath)
	if err != nil {
		return err
	}
	delete(m.entries, name)
	m.entries[to] = ino
	m.pending = append(m.pending, dirOp{name: name, to: to})
	m.mutated()
	return nil
}

func (m *memFS) Remove(path string) error {
	name, _, err := m.lookup("remove", path)
	if err != nil {
		return err
	}
	delete(m.entries, name)
	m.pending = append(m.pending, dirOp{name: name})
	m.mutated()
	return nil
}

func (m *memFS) Truncate(path string, size int64) error {
	_, ino, err := m.lookup("truncate", path)
	if err != nil {
		return err
	}
	ino.apply(fileOp{size: size})
	m.mutated()
	return nil
}

func (m *memFS) MkdirAll(dir string) error {
	if dir != m.dir {
		return &fs.PathError{Op: "mkdir", Path: dir, Err: fs.ErrPermission}
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	if dir != m.dir {
		return &fs.PathError{Op: "sync", Path: dir, Err: fs.ErrNotExist}
	}
	m.durable = make(map[string]*memInode, len(m.entries))
	for name, ino := range m.entries {
		m.durable[name] = ino
	}
	m.pending = nil
	return nil
}

func (ino *memInode) apply(op fileOp) {
	ino.data = op.applyTo(ino.data)
	ino.pending = append(ino.pending, op)
}

func (op fileOp) applyTo(b []byte) []byte {
	if op.write != nil {
		return append(b, op.write...)
	}
	if op.size <= int64(len(b)) {
		return b[:op.size:op.size]
	}
	return append(b, make([]byte, op.size-int64(len(b)))...)
}

// versions returns every content the persistence model lets a power cut
// leave in the file: its durable bytes plus each prefix of the operations
// since, and each such prefix followed by the first half of the next
// write — a torn one.
func (ino *memInode) versions() [][]byte {
	b := append([]byte(nil), ino.durable...)
	out := [][]byte{b}
	for _, op := range ino.pending {
		if len(op.write) > 1 {
			out = append(out, append(b[:len(b):len(b)], op.write[:len(op.write)/2]...))
		}
		b = op.applyTo(b[:len(b):len(b)])
		out = append(out, b)
	}
	return out
}

type memFile struct {
	fs     *memFS
	ino    *memInode
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, fs.ErrClosed
	}
	f.ino.apply(fileOp{write: append([]byte{}, p...)})
	f.fs.mutated()
	return len(p), nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return fs.ErrClosed
	}
	f.ino.durable = append([]byte(nil), f.ino.data...)
	f.ino.pending = nil
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) { return memInfo(len(f.ino.data)), nil }

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// memInfo is a file's size, the one fact the log asks Stat for.
type memInfo int64

func (memInfo) Name() string           { return "" }
func (n memInfo) Size() int64          { return int64(n) }
func (memInfo) Mode() fs.FileMode      { return 0o644 }
func (memInfo) ModTime() (t time.Time) { return t }
func (memInfo) IsDir() bool            { return false }
func (memInfo) Sys() any               { return nil }

// crashStates calls visit with every directory a power cut now could leave:
// its durable entries plus a prefix of the entry operations since, each file
// in it with one of its versions. Every state is a fresh memFS with
// everything in it durable.
func (m *memFS) crashStates(visit func(*memFS)) {
	for j := 0; j <= len(m.pending); j++ {
		entries := make(map[string]*memInode, len(m.durable))
		for name, ino := range m.durable {
			entries[name] = ino
		}
		for _, op := range m.pending[:j] {
			switch {
			case op.ino != nil:
				entries[op.name] = op.ino
			case op.to != "":
				entries[op.to] = entries[op.name]
				delete(entries, op.name)
			default:
				delete(entries, op.name)
			}
		}
		names := make([]string, 0, len(entries))
		for name := range entries {
			names = append(names, name)
		}
		sort.Strings(names)
		choice := make(map[string][]byte, len(names))
		var pick func(i int)
		pick = func(i int) {
			if i == len(names) {
				state := newMemFS(m.dir)
				for name, b := range choice {
					b = b[:len(b):len(b)] // an append to one state copies
					ino := &memInode{data: b, durable: b}
					state.entries[name], state.durable[name] = ino, ino
				}
				visit(state)
				return
			}
			for _, b := range entries[names[i]].versions() {
				choice[names[i]] = b
				pick(i + 1)
			}
		}
		pick(0)
	}
}

// key identifies a state's contents.
func (m *memFS) key() uint64 {
	names, _ := m.ReadDir(m.dir)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(m.entries[name].data))
		h.Write(m.entries[name].data)
	}
	return h.Sum64()
}

// crashRun drives a scripted log on a memFS and, after every mutating call
// and every Log call, recovers every crash state the model allows and holds
// it to the contract: recovery returns no error, yields a contiguous prefix
// of the appended history (no hole, nothing from a timeline Reset
// discarded) that holds everything the last completed Sync, Close,
// checkpoint or synced Append covered, and the reopened log accepts the
// next append — and, once that append is synced, keeps it through every
// crash state of its own.
type crashRun struct {
	t     *testing.T
	fs    *memFS
	opts  Options
	l     *Log
	gen   int
	cur   []string // the history: cur[i] is the payload of seq i+1
	old   []string // while a Reset runs: the history it discards
	floor int      // how much of cur every crash state must keep
	seen  map[string]bool
	// checked counts the states recovered (each distinct state of the
	// scripted run once, and every state of its recovered logs' runs);
	// failed stops the run at its first broken state.
	checked int
	failed  bool
}

const crashDir = "/wal"

func newCrashRun(t *testing.T, sync bool) *crashRun {
	r := &crashRun{t: t, fs: newMemFS(crashDir), seen: map[string]bool{}}
	r.opts = Options{SegmentSize: 64, Sync: sync, FS: r.fs}
	r.fs.after = r.check
	l, err := Open(crashDir, r.opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.l = l
	r.check()
	return r
}

func payload(gen, seq int) string { return fmt.Sprintf("g%d.%d", gen, seq) }

func stateDigest(state []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(state, ",")))
	return h.Sum64() | 1
}

// recoverState opens the log in fsys and recovers it, checking on the way
// that every replayed entry follows the last one seq by seq.
func recoverState(fsys *memFS, opts Options) (*Log, []string, error) {
	opts.FS = fsys
	l, err := Open(crashDir, opts)
	if err != nil {
		return nil, nil, err
	}
	var state []string
	last, err := l.RecoverVerified(func(snap []byte, seq uint32) error {
		state = nil
		if len(snap) > 0 {
			state = strings.Split(string(snap), ",")
		}
		if len(state) != int(seq) {
			return fmt.Errorf("checkpoint at %d holds %d entries", seq, len(state))
		}
		return nil
	}, func(e Entry) error {
		if int(e.Seq) != len(state)+1 {
			return fmt.Errorf("replayed seq %d after %d: a hole", e.Seq, len(state))
		}
		state = append(state, string(e.Payload))
		return nil
	}, func(seq uint32, digest uint64) bool { return stateDigest(state) == digest })
	switch {
	case err != nil:
	case int(last) != len(state):
		err = fmt.Errorf("recovery reports seq %d for %d entries", last, len(state))
	case l.LastSeq() != last:
		err = fmt.Errorf("Open positioned the log at %d, recovery reached %d", l.LastSeq(), last)
	}
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, state, nil
}

func isPrefix(p, of []string) bool {
	if len(p) > len(of) {
		return false
	}
	for i := range p {
		if p[i] != of[i] {
			return false
		}
	}
	return true
}

// verdict holds a recovered state to the contract; "" is a pass.
func verdict(state []string, floor int, histories ...[]string) string {
	for _, h := range histories {
		if isPrefix(state, h) && len(state) >= floor {
			return ""
		}
	}
	return fmt.Sprintf("recovered %d entries %v: not a prefix of the history holding its first %d", len(state), state, floor)
}

// check recovers every crash state of the run's disk as it stands.
func (r *crashRun) check() {
	if r.failed {
		return
	}
	histories := [][]string{r.cur}
	if r.old != nil {
		histories = append(histories, r.old)
	}
	r.fs.crashStates(func(state *memFS) {
		key := fmt.Sprintf("%x/%d/%d/%v", state.key(), r.floor, len(r.cur), r.old != nil)
		if r.failed || r.seen[key] {
			return
		}
		r.seen[key] = true
		r.checked++
		if msg := r.checkState(state, histories); msg != "" {
			r.failed = true
			r.t.Errorf("%s\n  crash state: %s", msg, describe(state))
		}
	})
}

// checkState recovers one crash state, then recovers it again with every
// mutating call enumerated, appends to it and syncs: a crash during or after
// recovery must lose nothing recovery found, nor the synced append.
func (r *crashRun) checkState(state *memFS, histories [][]string) string {
	l, got, err := recoverState(state.clone(), r.opts)
	if err != nil {
		return fmt.Sprintf("recovery failed: %v", err)
	}
	l.Close()
	if msg := verdict(got, r.floor, histories...); msg != "" {
		return msg
	}
	next := got[:len(got):len(got)]
	for i := 0; i < 4; i++ {
		next = append(next, fmt.Sprintf("next.%d", i))
	}
	floor := len(got)
	var msg string
	state.after = func() {
		state.crashStates(func(again *memFS) {
			if msg != "" {
				return
			}
			r.checked++
			l, got, err := recoverState(again, r.opts)
			if err != nil {
				msg = fmt.Sprintf("recovery after recovery failed: %v", err)
				return
			}
			l.Close()
			if v := verdict(got, floor, next); v != "" {
				msg = "after recovery: " + v
			}
		})
	}
	l, _, err = recoverState(state, r.opts)
	if err != nil {
		return fmt.Sprintf("recovery failed the second time: %v", err)
	}
	defer l.Close()
	for seq := len(got) + 1; seq <= len(next); seq++ {
		if err := l.Append([]Entry{{Seq: uint32(seq), Payload: []byte(next[seq-1])}}); err != nil {
			return fmt.Sprintf("the recovered log refuses append %d: %v", seq, err)
		}
	}
	if err := l.Sync(); err != nil {
		return fmt.Sprintf("syncing the recovered log: %v", err)
	}
	floor = len(next)
	state.after()
	return msg
}

// clone copies a state that holds nothing pending.
func (m *memFS) clone() *memFS {
	c := newMemFS(m.dir)
	for name, ino := range m.entries {
		c.entries[name] = &memInode{data: ino.data, durable: ino.durable}
		c.durable[name] = c.entries[name]
	}
	return c
}

func describe(m *memFS) string {
	names, _ := m.ReadDir(m.dir)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s(%dB) ", name, len(m.entries[name].data))
	}
	return b.String()
}

// append journals n entries as one record.
func (r *crashRun) append(n int) {
	var batch []Entry
	for i := 0; i < n; i++ {
		seq := len(r.cur) + 1
		r.cur = append(r.cur, payload(r.gen, seq))
		batch = append(batch, Entry{Seq: uint32(seq), Payload: []byte(r.cur[seq-1])})
	}
	if err := r.l.Append(batch); err != nil {
		r.t.Fatalf("Append: %v", err)
	}
	if r.opts.Sync {
		r.floor = len(r.cur)
	}
	r.check()
}

func (r *crashRun) checkpoint(seq int) {
	snap := r.cur[:seq]
	if err := r.l.CheckpointDigest(uint32(seq), stateDigest(snap), []byte(strings.Join(snap, ","))); err != nil {
		r.t.Fatalf("CheckpointDigest: %v", err)
	}
	r.floor = max(r.floor, seq)
	r.check()
}

// reset installs a transferred state at seq: the history up to it is the
// group's (entries this log lacked arrive with the transfer), and whatever
// this log held beyond it is discarded.
func (r *crashRun) reset(seq int) {
	r.old, r.gen = r.cur, r.gen+1
	r.cur = append([]string(nil), r.old[:min(seq, len(r.old))]...)
	for len(r.cur) < seq {
		r.cur = append(r.cur, payload(r.gen, len(r.cur)+1))
	}
	r.floor = 0 // a crash part way may leave a prefix of either history
	if err := r.l.Reset(uint32(seq), stateDigest(r.cur), []byte(strings.Join(r.cur, ","))); err != nil {
		r.t.Fatalf("Reset: %v", err)
	}
	r.old, r.floor = nil, seq
	r.check()
}

func (r *crashRun) sync() {
	if err := r.l.Sync(); err != nil {
		r.t.Fatalf("Sync: %v", err)
	}
	r.floor = len(r.cur)
	r.check()
}

func (r *crashRun) close() {
	if err := r.l.Close(); err != nil {
		r.t.Fatalf("Close: %v", err)
	}
	r.floor = len(r.cur)
	r.check()
}

// TestCrashStatesRecover runs each script with and without Options.Sync and
// recovers every crash state after every call. Segments are 64 bytes, so a
// segment holds two or three records and every script rotates often.
func TestCrashStatesRecover(t *testing.T) {
	scripts := []struct {
		name string
		run  func(r *crashRun)
	}{
		{"appends across rotation, sync and close", func(r *crashRun) {
			for i := 0; i < 5; i++ {
				r.append(1)
			}
			r.append(3)
			r.sync()
			r.append(1)
			r.append(2)
			r.close()
		}},
		// A synced append is acknowledged only once the directory names the
		// fresh segment it landed in.
		{"synced append in a fresh segment", func(r *crashRun) {
			r.append(2)
			r.append(1)
			r.append(1)
			r.append(1)
			r.close()
		}},
		{"checkpoints removing dead segments", func(r *crashRun) {
			for i := 0; i < 10; i++ {
				r.append(1)
			}
			r.checkpoint(4)
			r.append(2)
			r.checkpoint(9)
			r.append(1)
			r.append(2)
			r.checkpoint(13)
			r.append(1)
			r.sync()
			r.append(1)
			r.close()
		}},
		{"reset over a multi-segment log", func(r *crashRun) {
			for i := 0; i < 12; i++ {
				r.append(1)
			}
			r.checkpoint(5)
			r.checkpoint(8)
			r.append(2)
			r.reset(10)
			r.append(1)
			r.append(2)
			r.reset(16) // a transfer past everything this log held
			r.append(1)
			r.close()
		}},
	}
	start := time.Now()
	total := 0
	for _, sc := range scripts {
		for _, sync := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sync=%v", sc.name, sync), func(t *testing.T) {
				r := newCrashRun(t, sync)
				sc.run(r)
				total += r.checked
			})
		}
	}
	t.Logf("checked %d crash states in %v", total, time.Since(start).Round(time.Millisecond))
	if total < 1000 {
		t.Fatalf("checked %d crash states, want at least 1000", total)
	}
}

// TestInterruptedResetNeverReplaysAcrossAHole: Reset removes a log's
// segments oldest first before it writes its new checkpoint, so a crash part
// way can leave the newest checkpoint with the segments that bridge it to
// the rest gone. Recovery must stop at the hole rather than replay what lies
// beyond it on top of the checkpoint, and the reopened log must append where
// the replay stopped.
func TestInterruptedResetNeverReplaysAcrossAHole(t *testing.T) {
	for k := 0; k <= 11; k++ {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentSize: 128})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for seq := uint32(1); seq <= 49; seq++ {
			if err := l.Append([]Entry{entry(seq)}); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		for _, seq := range []uint32{10, 20} {
			if err := l.Checkpoint(seq, []byte(fmt.Sprintf("state@%d", seq))); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		segs := append([]segment(nil), l.segments...)
		l.Close()
		if len(segs) != 11 {
			t.Fatalf("%d segments, want 11", len(segs))
		}
		for _, seg := range segs[:k] {
			if err := os.Remove(seg.path); err != nil {
				t.Fatal(err)
			}
		}

		for round := 0; round < 2; round++ {
			l, err := Open(dir, Options{SegmentSize: 128})
			if err != nil {
				t.Fatalf("k=%d: reopen: %v", k, err)
			}
			_, snapSeq, entries, last := replayAll(t, l)
			for i, e := range entries {
				if e.Seq != snapSeq+uint32(i)+1 {
					t.Fatalf("k=%d: replayed seq %d after checkpoint %d and %d entries: a hole", k, e.Seq, snapSeq, i)
				}
			}
			if last != snapSeq+uint32(len(entries)) {
				t.Fatalf("k=%d: recovery reports %d, replayed to %d", k, last, snapSeq+uint32(len(entries)))
			}
			if round == 0 {
				if err := l.Append([]Entry{entry(last + 1)}); err != nil {
					t.Fatalf("k=%d: append after recovery: %v", k, err)
				}
			}
			l.Close()
		}
	}
}
