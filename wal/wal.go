// Package wal is the durable-history layer of the group system: a segmented,
// checksummed write-ahead log of a replica's delivered ordered entries, plus
// snapshot checkpoints that bound replay.
//
// The paper's Amoeba keeps its ordered message history purely in memory —
// resilience degree r protects against r simultaneous crashes, but a
// whole-cluster power loss erases every group. This package closes that gap
// without touching the protocol: each replica journals the totally-ordered
// entries it applies (the same stream every member observes), periodically
// records a snapshot checkpoint of its state machine, and on a cold start
// rebuilds the state by restoring the newest checkpoint and replaying the
// log suffix beyond it.
//
// # On-disk layout
//
// A log is a directory:
//
//	seg-0000000000.wal    entry records with seqs > 0 (the segment's base)
//	seg-0000004096.wal    entry records with seqs > 4096
//	ckpt-0000004096.snap  snapshot reflecting every entry with seq ≤ 4096
//
// Entry records are batch-aware: one record covers a run of ordered entries
// (a coalesced delivery burst journals — and syncs — once), recording each
// entry's sequence number so replay can skip what a checkpoint already
// reflects. Every record carries a CRC32 over its body; replay stops at the
// first record that fails the checksum, so a torn tail — the write that was
// in flight when the machine died — truncates cleanly to the last complete
// entry instead of corrupting recovery. Checkpoints are written atomically
// (temp file, fsync, rename) and make every segment whose entries they cover
// dead; Checkpoint deletes dead segments, bounding the directory to roughly
// one checkpoint plus the entry suffix behind it.
//
// # Durability contract
//
// By default appends reach the operating system (surviving any process
// crash) but are not fsynced (a kernel panic or power loss may lose the
// tail). Options.Sync forces an fsync per append record, at the cost the
// benchmark's wal.append_sync_p50_us rung measures against
// wal.append_p50_us; checkpoints are always fsynced. Note what Sync does and does not promise: a replica journals at
// APPLY time, so an entry is on this disk once this replica has applied it —
// a command whose send completed but whose delivery no surviving replica had
// yet applied and journaled can still be lost to a simultaneous power cut.
// Losing such a tail is otherwise safe in a replicated group: recovery
// rejoins the group and state transfer supplies whatever the log lost — the
// log's job is to survive the restarts state transfer cannot help with,
// when every replica went down at once.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba/obs"
)

// Entry is one totally-ordered command: the payload applied to the state
// machine at sequence number Seq.
type Entry struct {
	Seq     uint32
	Payload []byte
}

// FaultOp names an injectable I/O site inside the log.
type FaultOp int

const (
	// FaultAppend is the entry-record write in Append.
	FaultAppend FaultOp = iota
	// FaultSync is an fsync of appended records (immediate or delayed).
	FaultSync
	// FaultCheckpoint is the checkpoint snapshot write.
	FaultCheckpoint
)

// InjectedFault is what a FaultHook asks the log to simulate at a fault
// point.
type InjectedFault int

const (
	// NoFault lets the operation run normally.
	NoFault InjectedFault = iota
	// DiskFull fails the operation cleanly with ErrDiskFull before any
	// byte reaches the file — ENOSPC. The log stays usable; a later
	// operation may succeed if the hook stops injecting.
	DiskFull
	// TornWrite lets only a prefix of the record reach the file before
	// failing — the half-written tail a power cut leaves behind. The log
	// poisons itself (see ErrPoisoned): nothing may be appended after a
	// partial record, because replay stops at the first invalid record and
	// would silently lose every entry behind it.
	TornWrite
)

// FaultHook decides, per operation, whether to inject a fault. It is called
// with the log's directory (so one process-wide hook can target a specific
// replica's log) and the operation about to run. Hooks run under the log
// mutex: keep them fast and do not call back into the log.
type FaultHook func(dir string, op FaultOp) InjectedFault

// Options tunes a log; the zero value is ready to use.
type Options struct {
	// SegmentSize is the size at which the active segment is sealed and a
	// new one started (default 1 MiB). Smaller segments truncate sooner
	// after a checkpoint; larger ones hold fewer open-file transitions.
	SegmentSize int
	// Sync forces an fsync after every append, extending durability from
	// process crashes to power loss. Checkpoints are fsynced regardless.
	Sync bool
	// SyncDelay, with Sync, coalesces fsyncs across append bursts: an
	// append marks the segment dirty and the fsync runs at most SyncDelay
	// later, covering every append since the previous one — group commit
	// across delivery bursts, so a slow disk pays one rotation for many
	// bursts instead of one each. The durability window widens from "the
	// append has returned" to "at most SyncDelay after the append
	// returned"; a replica already journals at apply time (after the ack),
	// so the protocol-level guarantee is unchanged in kind, only the
	// bound moves. Zero (the default) syncs inside every Append.
	SyncDelay time.Duration
	// Obs, when non-nil, records per-append and per-fsync latencies into
	// the hub's amoeba_wal_append_ns / amoeba_wal_fsync_ns histograms and
	// reports degradations to its flight recorder. Nil is the no-op sink.
	Obs *obs.Hub
	// FaultHook, when non-nil, is consulted before appends, fsyncs, and
	// checkpoints so tests and the fuzz harness can inject disk-full and
	// torn-tail failures mid-run instead of crafting fixtures offline.
	// Nil injects nothing.
	FaultHook FaultHook
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 1 << 20
	}
	return o
}

// Stats counts what the log has done since Open.
type Stats struct {
	// Appends counts Append calls (records written).
	Appends uint64
	// Syncs counts fsyncs issued for appended records (immediate under
	// Sync, or delayed-and-coalesced under SyncDelay: one sync may cover
	// many appends). Checkpoint and seal fsyncs are not counted.
	Syncs uint64
	// Entries counts entries journaled inside those records.
	Entries uint64
	// Checkpoints counts snapshot checkpoints written.
	Checkpoints uint64
	// SegmentsRemoved counts dead segments deleted by checkpoints.
	SegmentsRemoved uint64
	// TailTruncated reports that Open found a torn or corrupt tail record
	// and truncated the active segment back to the last complete entry.
	TailTruncated bool
	// ResetDiscarded counts entries beyond the reset point dropped by
	// Reset: history this log held that the authoritative state transfer
	// did not — a survivor that missed the cold-start election and joined
	// later gave up that suffix.
	ResetDiscarded uint64
	// CheckpointsRejected counts digest-stamped checkpoints refused at
	// recovery because the restored state's digest did not match the stamp
	// (see RecoverVerified) — recovery fell back to an older checkpoint and
	// a longer replay.
	CheckpointsRejected uint64
	// RecoveredEntries counts entries replayed by Recover (after the
	// checkpoint, if any).
	RecoveredEntries uint64
}

// Errors returned by the package.
var (
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrOutOfOrder reports an append whose sequence numbers do not
	// strictly ascend past everything already logged.
	ErrOutOfOrder = errors.New("wal: entries out of order")
	// ErrDiskFull reports an injected out-of-space failure.
	ErrDiskFull = errors.New("wal: disk full")
	// ErrPoisoned reports an append to a log whose active segment holds a
	// partial record: an earlier write failed midway, and anything
	// appended after it would be unreachable to replay (recovery stops at
	// the first invalid record). The caller must retire the log; the next
	// Open truncates the torn tail and starts clean.
	ErrPoisoned = errors.New("wal: log poisoned by a partial write")
)

// Record layout:
//
//	size  u32   length of body
//	crc   u32   CRC32 (IEEE) of body
//	body  size bytes:
//	      lo    u32     lowest seq in the record
//	      hi    u32     highest seq in the record
//	      count u16     entries that follow
//	      count × { seq u32 | len uvarint | payload }
//
// A record is valid iff its full body is present and the CRC matches; replay
// treats the first invalid record as the end of the log.
const (
	recordHeaderSize = 8
	recordBodyFixed  = 10
	// maxRecordBody bounds a single record, protecting replay from a
	// corrupt size field committing to a multi-gigabyte read.
	maxRecordBody = 16 << 20
)

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(base uint32) string { return fmt.Sprintf("%s%010d%s", segPrefix, base, segSuffix) }
func ckptName(seq uint32) string { return fmt.Sprintf("%s%010d%s", ckptPrefix, seq, ckptSuffix) }
func parseSeq(name, prefix, suffix string) (uint32, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// segment is one on-disk log file; entries in it have seqs > base.
type segment struct {
	base uint32
	path string
}

// Log is an open write-ahead log directory. Methods are safe for concurrent
// use: the log serialises itself on its own mutex, so a slow Checkpoint (a
// snapshot write and fsync) excludes concurrent Appends without the caller
// holding any wider lock across the disk I/O — the shared package's replica
// lock used to serialise the log, which made every read on a replica stall
// behind its periodic checkpoint.
type Log struct {
	dir  string
	opts Options

	// mu guards everything below (the delayed-sync state keeps its own
	// finer lock, shared with the timer goroutine).
	mu       sync.Mutex
	segments []segment // sorted by base; the last is active
	active   *os.File
	activeSz int64
	lastSeq  uint32 // highest seq logged or checkpointed
	ckptSeq  uint32 // newest valid checkpoint's seq (0: none)
	hasCkpt  bool   // a checkpoint file exists (even one at seq 0)
	closed   bool
	// writeErr poisons the log after a record write failed partway: the
	// active segment may hold a partial record, and appending past it
	// would strand every later entry beyond replay's reach (recovery
	// stops at the first invalid record). Sticky until Close; the next
	// Open truncates the tail and starts clean.
	writeErr error
	stats    Stats

	// Delayed-sync state. Unlike the rest of the log this is touched by
	// the timer goroutine too, so it has its own lock; syncs is read by
	// Stats while the timer may fire.
	syncMu    sync.Mutex
	syncTimer *time.Timer
	syncFile  *os.File // segment the pending delayed sync covers
	syncErr   error    // first delayed-fsync failure, surfaced by the next Append/Sync
	syncs     atomic.Uint64

	// Stage-latency instruments, resolved once at Open (nil without Obs).
	appendH  *obs.Histogram
	fsyncH   *obs.Histogram
	flight   *obs.Recorder
	obsUnreg func() // detaches the stats source from the hub registry
}

// Open opens (creating if needed) the log directory, validates the tail of
// the newest segment — truncating a torn final record back to the last
// complete entry — and positions the log to append after the highest
// recorded sequence number. Call Recover next to rebuild state.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	l.appendH = opts.Obs.Histogram("amoeba_wal_append_ns")
	l.fsyncH = opts.Obs.Histogram("amoeba_wal_fsync_ns")
	l.flight = opts.Obs.Flight()
	l.obsUnreg = opts.Obs.Registry().RegisterSource(func() []obs.Sample {
		s := l.Stats()
		return []obs.Sample{
			{Name: "amoeba_wal_appends_total", Value: s.Appends},
			{Name: "amoeba_wal_syncs_total", Value: s.Syncs},
			{Name: "amoeba_wal_entries_total", Value: s.Entries},
			{Name: "amoeba_wal_checkpoints_total", Value: s.Checkpoints},
			{Name: "amoeba_wal_segments_removed_total", Value: s.SegmentsRemoved},
			{Name: "amoeba_wal_reset_discarded_total", Value: s.ResetDiscarded},
			{Name: "amoeba_wal_recovered_entries_total", Value: s.RecoveredEntries},
			{Name: "amoeba_wal_checkpoints_rejected_total", Value: s.CheckpointsRejected},
		}
	})
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name)) // interrupted checkpoint
			continue
		}
		if base, ok := parseSeq(name, segPrefix, segSuffix); ok {
			l.segments = append(l.segments, segment{base: base, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].base < l.segments[j].base })
	// Validate the newest checkpoint now rather than trusting filenames: a
	// corrupt checkpoint must not inflate lastSeq past what Recover can
	// actually restore, or the first post-recovery append would be
	// rejected as out of order.
	if _, seq, _, ok := l.readBestCheckpoint(); ok {
		l.ckptSeq, l.hasCkpt = seq, true
	}
	l.lastSeq = l.ckptSeq

	// Find the last segment holding a valid record: it defines lastSeq and
	// becomes the active segment after tail validation.
	for i := len(l.segments) - 1; i >= 0; i-- {
		validLen, maxSeq, torn, err := scanSegment(l.segments[i].path, nil, 0)
		if err != nil {
			return nil, err
		}
		if i == len(l.segments)-1 && torn {
			if err := os.Truncate(l.segments[i].path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", l.segments[i].path, err)
			}
			l.stats.TailTruncated = true
		}
		if maxSeq > 0 {
			if maxSeq > l.lastSeq {
				l.lastSeq = maxSeq
			}
			break
		}
	}
	if len(l.segments) == 0 {
		if err := l.rotate(); err != nil {
			return nil, err
		}
	} else {
		tail := l.segments[len(l.segments)-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sizing active segment: %w", err)
		}
		l.active, l.activeSz = f, st.Size()
	}
	return l, nil
}

// scanSegment walks a segment's records, calling visit (when non-nil) for
// every entry with seq > afterSeq, in order. It returns the byte length of
// the valid prefix, the highest seq seen, and whether the scan stopped at an
// invalid (torn or corrupt) record before the end of the file.
func scanSegment(path string, visit func(Entry) error, afterSeq uint32) (validLen int64, maxSeq uint32, torn bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	off := int64(0)
	for int64(len(buf))-off >= recordHeaderSize {
		size := binary.BigEndian.Uint32(buf[off:])
		crc := binary.BigEndian.Uint32(buf[off+4:])
		if size < recordBodyFixed || size > maxRecordBody || int64(size) > int64(len(buf))-off-recordHeaderSize {
			return off, maxSeq, true, nil
		}
		body := buf[off+recordHeaderSize : off+recordHeaderSize+int64(size)]
		if crc32.ChecksumIEEE(body) != crc {
			return off, maxSeq, true, nil
		}
		hi := binary.BigEndian.Uint32(body[4:])
		count := int(binary.BigEndian.Uint16(body[8:]))
		rest := body[recordBodyFixed:]
		ok := true
		for i := 0; i < count; i++ {
			if len(rest) < 4 {
				ok = false
				break
			}
			seq := binary.BigEndian.Uint32(rest)
			rest = rest[4:]
			n, w := binary.Uvarint(rest)
			if w <= 0 || uint64(len(rest)-w) < n {
				ok = false
				break
			}
			payload := rest[w : w+int(n)]
			rest = rest[w+int(n):]
			if visit != nil && seq > afterSeq {
				if err := visit(Entry{Seq: seq, Payload: payload}); err != nil {
					return off, maxSeq, false, err
				}
			}
		}
		if !ok {
			// The CRC matched but the body does not parse: treat as the
			// end of the valid prefix, like a torn record.
			return off, maxSeq, true, nil
		}
		if hi > maxSeq {
			maxSeq = hi
		}
		off += recordHeaderSize + int64(size)
	}
	return off, maxSeq, int64(len(buf)) != off, nil
}

// armDelayedSync schedules (or coalesces into) the pending delayed fsync of
// the active segment: the first dirty append arms the timer, later appends
// inside the window ride the same fsync — group commit across bursts. A
// failure of an earlier delayed fsync is returned here (and from Sync), so
// a dying disk degrades the log exactly as the immediate-sync path would —
// one window late, never silently.
func (l *Log) armDelayedSync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncErr != nil {
		return fmt.Errorf("wal: delayed fsync failed: %w", l.syncErr)
	}
	l.syncFile = l.active
	if l.syncTimer != nil {
		return nil // an fsync is already scheduled; this append joins it
	}
	l.syncTimer = time.AfterFunc(l.opts.SyncDelay, l.fireDelayedSync)
	return nil
}

// fireDelayedSync runs on the timer goroutine: flush whatever segment the
// window's appends landed in. *os.File is safe for concurrent Sync/Write; a
// segment sealed meanwhile was already fsynced by rotate.
func (l *Log) fireDelayedSync() {
	l.syncMu.Lock()
	f := l.syncFile
	l.syncTimer = nil
	l.syncFile = nil
	l.syncMu.Unlock()
	if f == nil {
		return
	}
	s0 := time.Now()
	if err := f.Sync(); err != nil {
		l.syncMu.Lock()
		if l.syncErr == nil {
			l.syncErr = err
		}
		l.syncMu.Unlock()
		l.flight.Recordf("wal", "delayed fsync failed in %s: %v", l.dir, err)
		return
	}
	l.fsyncH.Observe(time.Since(s0))
	l.syncs.Add(1)
}

// flushDelayedSync cancels the pending delayed fsync, if any; callers are
// about to fsync (or close) the segment themselves.
func (l *Log) flushDelayedSync() {
	l.syncMu.Lock()
	if l.syncTimer != nil {
		l.syncTimer.Stop()
		l.syncTimer = nil
		l.syncs.Add(1) // the caller's explicit fsync stands in for it
	}
	l.syncFile = nil
	l.syncMu.Unlock()
}

// rotate seals the active segment and starts a new one based at lastSeq.
func (l *Log) rotate() error {
	if l.active != nil {
		l.flushDelayedSync()
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: syncing sealed segment: %w", err)
		}
		l.active.Close()
		l.active = nil
	}
	seg := segment{base: l.lastSeq, path: filepath.Join(l.dir, segName(l.lastSeq))}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: sizing segment: %w", err)
	}
	l.segments = append(l.segments, seg)
	l.active, l.activeSz = f, st.Size()
	return nil
}

// Append journals a run of entries as one record (one write, and — with
// Options.Sync — one fsync, however many entries the run carries: the
// batch-awareness that lets a coalesced delivery burst pay the disk once).
// Sequence numbers must strictly ascend past everything already logged.
func (l *Log) Append(entries []Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.writeErr != nil {
		return l.writeErr
	}
	if len(entries) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { l.appendH.Observe(time.Since(start)) }()
	last := l.lastSeq
	for _, e := range entries {
		if e.Seq <= last {
			return fmt.Errorf("%w: seq %d after %d", ErrOutOfOrder, e.Seq, last)
		}
		last = e.Seq
	}
	body := make([]byte, recordBodyFixed, recordBodyFixed+len(entries)*16)
	binary.BigEndian.PutUint32(body[0:], entries[0].Seq)
	binary.BigEndian.PutUint32(body[4:], entries[len(entries)-1].Seq)
	binary.BigEndian.PutUint16(body[8:], uint16(len(entries)))
	for _, e := range entries {
		body = binary.BigEndian.AppendUint32(body, e.Seq)
		body = binary.AppendUvarint(body, uint64(len(e.Payload)))
		body = append(body, e.Payload...)
	}
	rec := make([]byte, recordHeaderSize+len(body))
	binary.BigEndian.PutUint32(rec[0:], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))
	copy(rec[recordHeaderSize:], body)

	if hook := l.opts.FaultHook; hook != nil {
		switch hook(l.dir, FaultAppend) {
		case DiskFull:
			// ENOSPC before any byte landed: a clean failure the caller
			// may retry once space frees; the segment stays readable.
			return fmt.Errorf("wal: appending: %w", ErrDiskFull)
		case TornWrite:
			// Half the record reaches the disk — the tail a power cut
			// tears. The file now ends in garbage, so the log poisons
			// itself: see ErrPoisoned.
			n, _ := l.active.Write(rec[:recordHeaderSize+len(body)/2])
			l.activeSz += int64(n)
			l.writeErr = ErrPoisoned
			return fmt.Errorf("wal: appending: torn write: %w", ErrPoisoned)
		}
	}
	if n, err := l.active.Write(rec); err != nil {
		if n > 0 {
			// A partial record is on disk. Without poisoning, the next
			// successful append would sit behind an invalid record and
			// replay — which stops at the first bad record — would
			// silently lose it and everything after it.
			l.activeSz += int64(n)
			l.writeErr = ErrPoisoned
		}
		return fmt.Errorf("wal: appending: %w", err)
	}
	if l.opts.Sync {
		if l.opts.SyncDelay > 0 {
			if err := l.armDelayedSync(); err != nil {
				return err
			}
		} else {
			if hook := l.opts.FaultHook; hook != nil && hook(l.dir, FaultSync) != NoFault {
				return fmt.Errorf("wal: syncing append: %w", ErrDiskFull)
			}
			s0 := time.Now()
			if err := l.active.Sync(); err != nil {
				return fmt.Errorf("wal: syncing append: %w", err)
			}
			l.fsyncH.Observe(time.Since(s0))
			l.syncs.Add(1)
		}
	}
	l.activeSz += int64(len(rec))
	l.lastSeq = last
	l.stats.Appends++
	l.stats.Entries += uint64(len(entries))
	if l.activeSz >= int64(l.opts.SegmentSize) {
		return l.rotate()
	}
	return nil
}

// Recover rebuilds state from the log: restore is called once with the
// newest valid checkpoint (if any exists), then apply is called for every
// journaled entry beyond it, in ascending sequence order. Replay stops
// cleanly at the first record that fails its checksum — the torn tail of a
// crash — and at any callback error. It returns the highest sequence number
// the log knows (checkpoint or entry), the caller's recovery baseline.
func (l *Log) Recover(restore func(snapshot []byte, seq uint32) error, apply func(Entry) error) (uint32, error) {
	return l.RecoverVerified(restore, apply, nil)
}

// RecoverVerified is Recover with checkpoint-digest verification: after a
// digest-stamped checkpoint is restored, verify is called with the stamped
// state digest. Returning false refuses the checkpoint — the file is deleted
// and recovery falls back to the previous (older) checkpoint with a longer
// entry replay, or, when no checkpoint survives, to a from-scratch replay.
// Before a from-scratch replay forced by a refusal, restore is called one
// final time with a nil snapshot and seq 0: the state machine must reset to
// its zero state, discarding whatever the refused restore left behind.
// Checkpoints stamped with digest 0 (the unstamped sentinel written by
// Checkpoint) and a nil verify skip verification.
func (l *Log) RecoverVerified(restore func(snapshot []byte, seq uint32) error, apply func(Entry) error, verify func(seq uint32, digest uint64) bool) (uint32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	afterSeq := uint32(0)
	rejected := false
	for {
		snap, seq, digest, ok := l.readBestCheckpoint()
		if !ok {
			// No checkpoint survives (unreadable, corrupt, or refused ones
			// were removed along the way).
			l.ckptSeq = 0
			l.hasCkpt = false
			if rejected && restore != nil {
				// A refused restore already mutated the state machine;
				// clear it before the from-scratch replay.
				if err := restore(nil, 0); err != nil {
					return 0, err
				}
			}
			break
		}
		if restore != nil {
			if err := restore(snap, seq); err != nil {
				return 0, err
			}
		}
		if digest != 0 && verify != nil && !verify(seq, digest) {
			rejected = true
			l.stats.CheckpointsRejected++
			l.flight.Recordf("wal", "checkpoint seq %d in %s refused: state digest mismatch, falling back", seq, l.dir)
			_ = os.Remove(filepath.Join(l.dir, ckptName(seq)))
			continue
		}
		afterSeq = seq
		break
	}
	recovered := afterSeq
	for _, seg := range l.segments {
		_, maxSeq, torn, err := scanSegment(seg.path, func(e Entry) error {
			if e.Seq <= recovered {
				return nil // idempotent replay: a record may straddle the checkpoint
			}
			// Detach the payload from the read buffer; appliers may retain it.
			p := make([]byte, len(e.Payload))
			copy(p, e.Payload)
			if apply != nil {
				if err := apply(Entry{Seq: e.Seq, Payload: p}); err != nil {
					return err
				}
			}
			recovered = e.Seq
			l.stats.RecoveredEntries++
			return nil
		}, recovered)
		if err != nil {
			return recovered, err
		}
		if maxSeq > recovered {
			recovered = maxSeq
		}
		if torn {
			// A damaged record ends the trustworthy history; anything
			// beyond it is unusable because order can no longer be
			// guaranteed. (Only the final segment can be torn by a crash;
			// mid-log damage means disk corruption, handled the same way.)
			break
		}
	}
	if recovered > l.lastSeq {
		l.lastSeq = recovered
	}
	if rejected && recovered < l.lastSeq {
		// The refused checkpoint had inflated lastSeq past what the
		// surviving history can actually reproduce; lower the append
		// baseline to the recovery point or post-recovery appends would be
		// refused as out of order.
		l.lastSeq = recovered
	}
	return recovered, nil
}

// ckptHeaderSize is the fixed prefix of a checkpoint file:
//
//	crc    u32   CRC32 (IEEE) of everything after it
//	seq    u32   every entry with seq ≤ this is reflected
//	digest u64   state digest at seq (0: unstamped)
//	snapshot     the state machine's serialized state
const ckptHeaderSize = 16

// ckptRetain is how many checkpoints the log keeps: the newest plus the one
// before it, so recovery that refuses the newest (digest mismatch) can fall
// back to the previous one with a longer replay instead of losing the
// covered prefix. Segments are only dead once the oldest retained checkpoint
// covers them.
const ckptRetain = 2

// listCheckpoints returns the checkpoint seqs present on disk, newest first.
func (l *Log) listCheckpoints() []uint32 {
	names, err := os.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	var seqs []uint32
	for _, de := range names {
		if seq, ok := parseSeq(de.Name(), ckptPrefix, ckptSuffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

// readBestCheckpoint returns the newest checkpoint whose CRC validates —
// with its stamped state digest — deleting ones that do not.
func (l *Log) readBestCheckpoint() ([]byte, uint32, uint64, bool) {
	for _, seq := range l.listCheckpoints() {
		path := filepath.Join(l.dir, ckptName(seq))
		buf, err := os.ReadFile(path)
		if err != nil || len(buf) < ckptHeaderSize {
			_ = os.Remove(path)
			continue
		}
		crc := binary.BigEndian.Uint32(buf)
		stored := binary.BigEndian.Uint32(buf[4:])
		if stored != seq || crc32.ChecksumIEEE(buf[4:]) != crc {
			_ = os.Remove(path)
			continue
		}
		digest := binary.BigEndian.Uint64(buf[8:])
		l.ckptSeq = seq
		return buf[ckptHeaderSize:], seq, digest, true
	}
	return nil, 0, 0, false
}

// Checkpoint records an unstamped snapshot reflecting every entry with
// seq ≤ seq — CheckpointDigest with digest 0, for state machines that cannot
// digest themselves.
func (l *Log) Checkpoint(seq uint32, snapshot []byte) error {
	return l.CheckpointDigest(seq, 0, snapshot)
}

// CheckpointDigest records a snapshot reflecting every entry with seq ≤ seq,
// stamped with the state machine's digest at that seq, written atomically
// and fsynced. It then prunes checkpoints beyond the retained pair and
// deletes the segments the oldest retained checkpoint makes dead. After a
// checkpoint, recovery restores the snapshot, verifies the digest (see
// RecoverVerified), and replays only the suffix beyond it.
func (l *Log) CheckpointDigest(seq uint32, digest uint64, snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpointLocked(seq, digest, snapshot)
}

func (l *Log) checkpointLocked(seq uint32, digest uint64, snapshot []byte) error {
	if l.closed {
		return ErrClosed
	}
	if hook := l.opts.FaultHook; hook != nil && hook(l.dir, FaultCheckpoint) != NoFault {
		// Checkpoints are atomic (temp + rename), so any injected failure is
		// the clean kind: the previous checkpoint stays in force.
		return fmt.Errorf("wal: writing checkpoint: %w", ErrDiskFull)
	}
	buf := make([]byte, ckptHeaderSize+len(snapshot))
	binary.BigEndian.PutUint32(buf[4:], seq)
	binary.BigEndian.PutUint64(buf[8:], digest)
	copy(buf[ckptHeaderSize:], snapshot)
	binary.BigEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	final := filepath.Join(l.dir, ckptName(seq))
	tmp := final + tmpSuffix
	if err := writeFileSync(tmp, buf); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	syncDir(l.dir)
	l.ckptSeq = seq
	l.hasCkpt = true
	if seq > l.lastSeq {
		l.lastSeq = seq
	}
	l.stats.Checkpoints++
	// Prune to the retained pair: the new checkpoint plus its predecessor.
	for i, old := range l.listCheckpoints() {
		if i >= ckptRetain {
			_ = os.Remove(filepath.Join(l.dir, ckptName(old)))
		}
	}
	return l.dropDeadSegments()
}

// Reset replaces the log's history wholesale: a checkpoint at seq (stamped
// with digest, 0 for unstamped) plus the removal of every entry segment and
// prior checkpoint, dead or not. A replica that (re)joins a running group
// installs the transferred snapshot with Reset — the transfer is
// authoritative, and entries journaled on the replica's previous timeline
// (before it crashed or was expelled) must not resurface in a later replay.
func (l *Log) Reset(seq uint32, digest uint64, snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active != nil {
		l.flushDelayedSync()
		l.active.Close()
		l.active = nil
	}
	if l.lastSeq > seq {
		l.stats.ResetDiscarded += uint64(l.lastSeq - seq)
		l.flight.Recordf("wal", "reset discarded %d entries beyond seq %d in %s", l.lastSeq-seq, seq, l.dir)
	}
	for _, seg := range l.segments {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: resetting: %w", err)
		}
		l.stats.SegmentsRemoved++
	}
	l.segments = nil
	l.lastSeq = seq
	// Checkpoints from the discarded timeline must not survive as fallback
	// candidates: the transfer is authoritative.
	for _, old := range l.listCheckpoints() {
		_ = os.Remove(filepath.Join(l.dir, ckptName(old)))
	}
	l.hasCkpt = false
	if err := l.checkpointLocked(seq, digest, snapshot); err != nil {
		return err
	}
	return l.rotate()
}

// dropDeadSegments deletes every sealed segment whose entries are all
// covered by the oldest retained checkpoint — not just the newest, so a
// recovery that refuses the newest checkpoint can still replay forward from
// its predecessor. Segment k's entries are bounded above by segment k+1's
// base, so the decision needs no scan.
func (l *Log) dropDeadSegments() error {
	cover := l.ckptSeq
	if seqs := l.listCheckpoints(); len(seqs) > 0 && seqs[len(seqs)-1] < cover {
		cover = seqs[len(seqs)-1]
	}
	keep := l.segments[:0]
	for i, seg := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1].base <= cover {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: removing dead segment: %w", err)
			}
			l.stats.SegmentsRemoved++
			continue
		}
		keep = append(keep, seg)
	}
	l.segments = keep
	return nil
}

// LastSeq reports the highest sequence number logged or checkpointed.
func (l *Log) LastSeq() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// CheckpointSeq reports the newest checkpoint's sequence number (0: none).
func (l *Log) CheckpointSeq() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptSeq
}

// Virgin reports whether the log has never recorded anything: no entries and
// no checkpoint, even an empty one. A virgin log distinguishes a node's
// first-ever boot from a restart.
func (l *Log) Virgin() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.hasCkpt && l.lastSeq == 0
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := l.stats
	l.mu.Unlock()
	st.Syncs = l.syncs.Load()
	return st
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Sync flushes the active segment to stable storage, absorbing any pending
// delayed fsync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active == nil {
		return nil
	}
	l.flushDelayedSync()
	l.syncMu.Lock()
	err := l.syncErr
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: delayed fsync failed: %w", err)
	}
	return l.active.Sync()
}

// Close flushes and closes the log. The directory remains ready for the next
// Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.obsUnreg != nil {
		unreg := l.obsUnreg
		l.obsUnreg = nil
		l.mu.Unlock()
		unreg() // reads Stats, which takes l.mu
		l.mu.Lock()
	}
	if l.active == nil {
		return nil
	}
	l.flushDelayedSync()
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames in it survive power loss; best
// effort (not every platform supports directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
