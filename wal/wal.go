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
//
// The crash model is the one the package's crash-state test enumerates: a
// file keeps its bytes up to its last fsync plus any prefix of the writes
// after it, and a directory keeps its entries up to its last fsync plus any
// prefix of the creations, renames and removals after it. In every state
// that model allows, recovery returns a contiguous prefix of the appended
// history — no hole, and nothing from a timeline Reset discarded — holding
// everything covered by the last completed Sync, Close, checkpoint or (with
// Options.Sync) Append. A new segment's directory entry is fsynced lazily,
// with the first fsync a caller asks for after it appears.
//
// One failure rule: any failed write or fsync poisons the log until it is
// reopened (ErrPoisoned). A partial record may end the active segment, and
// after a failed fsync the page cache no longer says what is on the disk;
// Open truncates whatever tail the failure left.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amoeba/obs"
)

// Entry is one totally-ordered command: the payload applied to the state
// machine at sequence number Seq.
type Entry struct {
	Seq     uint32
	Payload []byte
}

// Options tunes a log; the zero value is ready to use.
type Options struct {
	// SegmentSize is the size at which the active segment is sealed and a
	// new one started (default 1 MiB). Smaller segments truncate sooner
	// after a checkpoint; larger ones hold fewer open-file transitions. It
	// is also the checkpoint floor: no checkpoint comes due before a
	// segment's worth of records is journaled (see CheckpointDue).
	SegmentSize int
	// Sync forces an fsync after every append, extending durability from
	// process crashes to power loss. Checkpoints are fsynced regardless.
	Sync bool
	// Obs, when non-nil, records per-append and per-fsync latencies into
	// the hub's amoeba_wal_append_ns / amoeba_wal_fsync_ns histograms and
	// reports degradations to its flight recorder. Nil is the no-op sink.
	Obs *obs.Hub
	// FS is the file system the log does its I/O through (nil: the
	// operating system's).
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 1 << 20
	}
	if o.FS == nil {
		o.FS = OS
	}
	return o
}

// Stats counts what the log has done since Open.
type Stats struct {
	// Appends counts Append calls (records written).
	Appends uint64
	// Syncs counts fsyncs issued for appended records under Sync, one per
	// Append. Checkpoint and seal fsyncs are not counted.
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
	// (see Recover) — recovery fell back to an older checkpoint and
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
	// ErrPoisoned reports use of a log after a write, an fsync or another
	// change to its directory failed. The active segment may end in a
	// partial record, past which replay cannot reach, and a failed fsync
	// leaves the page cache no guide to what is on the disk. The caller
	// must retire the log; the next Open truncates the torn tail and starts
	// clean.
	ErrPoisoned = errors.New("wal: log poisoned by a failed write or fsync")
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
	fs   FS

	// mu guards everything below.
	mu       sync.Mutex
	segments []segment // sorted by base; the last is active
	active   File
	activeSz int64
	// newSegment reports that the active segment's directory entry may not
	// be durable: rotate created it, or Open found it left by a process
	// that may never have synced the directory. The next fsync a caller
	// asks for syncs the directory too, so a record it acknowledges is never
	// in a file a power cut can unname; the Sync: false append path pays
	// nothing for it.
	newSegment bool
	lastSeq    uint32 // highest seq logged or checkpointed
	ckptSeq    uint32 // newest valid checkpoint's seq (0: none)
	hasCkpt    bool   // a checkpoint file exists (even one at seq 0)
	closed     bool
	// failed is the first write or fsync failure; it poisons the log (see
	// ErrPoisoned) until Close, and the next Open starts clean.
	failed error
	stats  Stats
	// recBuf is where Append spells each record, reused from one append to
	// the next (File.Write keeps nothing of what it is given).
	recBuf []byte
	// journaled is the record bytes appended since the last checkpoint (or
	// Reset), ckptBytes that checkpoint's snapshot size (CheckpointDue).
	journaled, ckptBytes int64

	// Stage-latency instruments, resolved once at Open (nil without Obs).
	appendH  *obs.Histogram
	fsyncH   *obs.Histogram
	flight   *obs.Recorder
	obsUnreg func() // detaches the stats source from the hub registry
}

// Open opens (creating if needed) the log directory, finds the end of the
// history Recover can reproduce — truncating a torn final record back to the
// last complete entry — and positions the log to append after it. Call
// Recover next to rebuild state.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS}
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
	names, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			_ = l.fs.Remove(filepath.Join(dir, name)) // interrupted checkpoint
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
	reached, last, cut, err := l.walk(l.ckptSeq, nil)
	if err == nil {
		err = l.adopt(reached, last, cut)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// walk replays the history after seq from: every entry above from, in
// order, to visit (when non-nil). The history ends at the first torn or
// corrupt record, and before the first segment whose base is above the seq
// reached so far: the segments that would bridge that hole are gone (an
// interrupted Reset removes them oldest first), so nothing beyond it is the
// same history. walk returns the seq reached, the index of the segment the
// history ends in (-1: none), and that segment's valid length when a torn
// record ends it (-1 otherwise).
func (l *Log) walk(from uint32, visit func(Entry) error) (reached uint32, last int, cut int64, err error) {
	reached, last, cut = from, -1, -1
	for i, seg := range l.segments {
		if seg.base > reached {
			break
		}
		buf, err := l.fs.ReadFile(seg.path)
		if err != nil {
			return reached, last, cut, fmt.Errorf("wal: reading %s: %w", seg.path, err)
		}
		validLen, maxSeq, err := scanSegment(buf, func(e Entry) error {
			if e.Seq <= reached {
				return nil // idempotent replay: a record may straddle the checkpoint
			}
			if visit != nil {
				if err := visit(e); err != nil {
					return err
				}
			}
			reached = e.Seq
			return nil
		})
		if err != nil {
			return reached, last, cut, err
		}
		last = i
		reached = max(reached, maxSeq)
		if validLen < int64(len(buf)) {
			// A damaged record ends the trustworthy history; anything
			// beyond it is unusable because order can no longer be
			// guaranteed. (A crash tears only the final segment; mid-log
			// damage means disk corruption, handled the same way.)
			cut = validLen
			break
		}
	}
	return reached, last, cut, nil
}

// adopt makes the end of a walk the end of the log: the segment the history
// ends in is truncated to its valid prefix and becomes the active one, and
// every segment beyond it is removed. Recover can never reach those, and one
// left in place would replay its stale entries after the next append.
func (l *Log) adopt(reached uint32, last int, cut int64) error {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.lastSeq = reached
	if cut >= 0 {
		if err := l.fs.Truncate(l.segments[last].path, cut); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", l.segments[last].path, err)
		}
		l.stats.TailTruncated = true
	}
	if beyond := l.segments[last+1:]; len(beyond) > 0 {
		for _, seg := range beyond {
			if err := l.fs.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: removing %s beyond the end of the history: %w", seg.path, err)
			}
		}
		// Durable before anything is appended in their place.
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: syncing %s: %w", l.dir, err)
		}
		l.segments = l.segments[:last+1]
	}
	if last < 0 {
		return l.rotate()
	}
	return l.openActive(l.segments[last].path)
}

// openActive opens the segment at path, creating it if absent, as the one
// appends go to.
func (l *Log) openActive(path string) error {
	f, err := l.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: sizing segment: %w", err)
	}
	l.active, l.activeSz, l.newSegment = f, st.Size(), true
	return nil
}

// scanSegment walks a segment's records, calling visit for every entry in
// order. It returns the byte length of the valid prefix — short of len(buf)
// when the scan stopped at an invalid (torn or corrupt) record — and the
// highest seq seen.
func scanSegment(buf []byte, visit func(Entry) error) (validLen int64, maxSeq uint32, err error) {
	off := int64(0)
	for int64(len(buf))-off >= recordHeaderSize {
		size := binary.BigEndian.Uint32(buf[off:])
		crc := binary.BigEndian.Uint32(buf[off+4:])
		if size < recordBodyFixed || size > maxRecordBody || int64(size) > int64(len(buf))-off-recordHeaderSize {
			return off, maxSeq, nil
		}
		body := buf[off+recordHeaderSize : off+recordHeaderSize+int64(size)]
		if crc32.ChecksumIEEE(body) != crc {
			return off, maxSeq, nil
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
			if err := visit(Entry{Seq: seq, Payload: payload}); err != nil {
				return off, maxSeq, err
			}
		}
		if !ok {
			// The CRC matched but the body does not parse: treat as the
			// end of the valid prefix, like a torn record.
			return off, maxSeq, nil
		}
		if hi > maxSeq {
			maxSeq = hi
		}
		off += recordHeaderSize + int64(size)
	}
	return off, maxSeq, nil
}

// usable reports why the log refuses an operation: it is closed, or poisoned.
func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, l.failed)
	}
	return nil
}

// poison records the first failed write or fsync and returns err.
func (l *Log) poison(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	return err
}

// syncActive fsyncs the active segment and, when it is new, the directory.
func (l *Log) syncActive() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment: %w", err)
	}
	if l.newSegment {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: syncing %s: %w", l.dir, err)
		}
		l.newSegment = false
	}
	return nil
}

// syncAppended is the fsync Options.Sync asks for, inside Append.
func (l *Log) syncAppended() error {
	s0 := time.Now()
	if err := l.syncActive(); err != nil {
		return l.poison(err)
	}
	l.fsyncH.Observe(time.Since(s0))
	l.stats.Syncs++
	return nil
}

// rotate seals the active segment and starts a new one based at lastSeq.
func (l *Log) rotate() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: syncing sealed segment: %w", err)
		}
		l.active.Close()
		l.active = nil
	}
	seg := segment{base: l.lastSeq, path: filepath.Join(l.dir, segName(l.lastSeq))}
	if err := l.openActive(seg.path); err != nil {
		return err
	}
	l.segments = append(l.segments, seg)
	return nil
}

// Append journals a run of entries as one record (one write, and — with
// Options.Sync — one fsync, however many entries the run carries: the
// batch-awareness that lets a coalesced delivery burst pay the disk once).
// Sequence numbers must strictly ascend past everything already logged.
func (l *Log) Append(entries []Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
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
	// The record is spelled once, into the log's own buffer: the header's
	// room is reserved in front and filled in after the CRC of what follows.
	var fixed [recordHeaderSize + recordBodyFixed]byte
	rec := append(l.recBuf[:0], fixed[:]...)
	binary.BigEndian.PutUint32(rec[recordHeaderSize:], entries[0].Seq)
	binary.BigEndian.PutUint32(rec[recordHeaderSize+4:], entries[len(entries)-1].Seq)
	binary.BigEndian.PutUint16(rec[recordHeaderSize+8:], uint16(len(entries)))
	for _, e := range entries {
		rec = binary.BigEndian.AppendUint32(rec, e.Seq)
		rec = binary.AppendUvarint(rec, uint64(len(e.Payload)))
		rec = append(rec, e.Payload...)
	}
	body := rec[recordHeaderSize:]
	binary.BigEndian.PutUint32(rec[0:], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))
	l.recBuf = rec

	n, err := l.active.Write(rec)
	l.activeSz += int64(n)
	l.journaled += int64(n)
	if err != nil {
		return l.poison(fmt.Errorf("wal: appending: %w", err))
	}
	l.lastSeq = last
	l.stats.Appends++
	l.stats.Entries += uint64(len(entries))
	if l.opts.Sync {
		if err := l.syncAppended(); err != nil {
			return err
		}
	}
	if l.activeSz >= int64(l.opts.SegmentSize) {
		if err := l.rotate(); err != nil {
			return l.poison(err)
		}
	}
	return nil
}

// Recover rebuilds state from the log: restore is called once with the
// newest valid checkpoint (if any exists), then apply is called for every
// journaled entry beyond it, in ascending sequence order. Replay stops
// cleanly at the first record that fails its checksum — the torn tail of a
// crash — and at any callback error. It returns the highest sequence number
// the log knows (checkpoint or entry), the caller's recovery baseline.
//
// After a digest-stamped checkpoint is restored, verify is called with the
// stamped state digest. Returning false refuses the checkpoint — the file is
// deleted and recovery falls back to the previous (older) checkpoint with a
// longer entry replay, or, when no checkpoint survives, to a from-scratch
// replay. Before a from-scratch replay forced by a refusal, restore is called
// one final time with a nil snapshot and seq 0: the state machine must reset
// to its zero state, discarding whatever the refused restore left behind.
// Checkpoints stamped with digest 0 (unstamped) and a nil verify skip
// verification.
func (l *Log) Recover(restore func(snapshot []byte, seq uint32) error, apply func(Entry) error, verify func(seq uint32, digest uint64) bool) (uint32, error) {
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
			_ = l.fs.Remove(filepath.Join(l.dir, ckptName(seq)))
			continue
		}
		afterSeq = seq
		break
	}
	recovered, last, cut, err := l.walk(afterSeq, func(e Entry) error {
		// Detach the payload from the read buffer; appliers may retain it.
		p := make([]byte, len(e.Payload))
		copy(p, e.Payload)
		if apply != nil {
			if err := apply(Entry{Seq: e.Seq, Payload: p}); err != nil {
				return err
			}
		}
		l.stats.RecoveredEntries++
		return nil
	})
	if err != nil {
		return recovered, err
	}
	if rejected {
		// Open positioned the log after the refused checkpoint's history;
		// the surviving one may reproduce less.
		if err := l.adopt(recovered, last, cut); err != nil {
			return recovered, l.poison(err)
		}
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
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	var seqs []uint32
	for _, name := range names {
		if seq, ok := parseSeq(name, ckptPrefix, ckptSuffix); ok {
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
		buf, err := l.fs.ReadFile(path)
		if err != nil || len(buf) < ckptHeaderSize {
			_ = l.fs.Remove(path)
			continue
		}
		crc := binary.BigEndian.Uint32(buf)
		stored := binary.BigEndian.Uint32(buf[4:])
		if stored != seq || crc32.ChecksumIEEE(buf[4:]) != crc {
			_ = l.fs.Remove(path)
			continue
		}
		digest := binary.BigEndian.Uint64(buf[8:])
		l.ckptSeq = seq
		return buf[ckptHeaderSize:], seq, digest, true
	}
	return nil, 0, 0, false
}

// Checkpoint records a snapshot reflecting every entry with seq ≤ seq,
// stamped with the state machine's digest at that seq (0: unstamped, for
// state machines that cannot digest themselves), written atomically and
// fsynced. It then prunes checkpoints beyond the retained pair and deletes
// the segments the oldest retained checkpoint makes dead. After a
// checkpoint, recovery restores the snapshot, verifies the digest (see
// Recover), and replays only the suffix beyond it.
func (l *Log) Checkpoint(seq uint32, digest uint64, snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	return l.poison(l.checkpointLocked(seq, digest, snapshot))
}

func (l *Log) checkpointLocked(seq uint32, digest uint64, snapshot []byte) error {
	buf := make([]byte, ckptHeaderSize+len(snapshot))
	binary.BigEndian.PutUint32(buf[4:], seq)
	binary.BigEndian.PutUint64(buf[8:], digest)
	copy(buf[ckptHeaderSize:], snapshot)
	binary.BigEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	final := filepath.Join(l.dir, ckptName(seq))
	tmp := final + tmpSuffix
	if err := l.writeFileSync(tmp, buf); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	// The rename must be durable before anything it makes dead is removed.
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.dir, err)
	}
	l.newSegment = false
	l.ckptSeq = seq
	l.hasCkpt = true
	l.journaled, l.ckptBytes = 0, int64(len(snapshot))
	if seq > l.lastSeq {
		l.lastSeq = seq
	}
	l.stats.Checkpoints++
	// Prune to the retained pair: the new checkpoint plus its predecessor.
	for i, old := range l.listCheckpoints() {
		if i >= ckptRetain {
			_ = l.fs.Remove(filepath.Join(l.dir, ckptName(old)))
		}
	}
	return l.dropDeadSegments()
}

const (
	// checkpointFloor is the segments of records journaled before any
	// checkpoint is due. A checkpoint frees only sealed segments
	// (dropDeadSegments): one written sooner bounds replay but frees no
	// disk, and still pays two fsyncs, the file's and the directory's.
	checkpointFloor = 1
	// checkpointRatio caps the bytes checkpoints write at a quarter of
	// the bytes journaled, however large the state.
	checkpointRatio = 4
)

// CheckpointDue reports whether the record bytes appended since the last
// checkpoint (or Reset) reach the larger of checkpointFloor segments and
// checkpointRatio times that checkpoint's snapshot: the rule of Ongaro's Raft
// dissertation (§5.1.3). It needs no recovery bookkeeping: every durable open
// of a replica ends in a checkpoint or a Reset, both of which start the count
// afresh (checkpointLocked).
func (l *Log) CheckpointDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journaled >= max(checkpointFloor*int64(l.opts.SegmentSize), checkpointRatio*l.ckptBytes)
}

// Reset replaces the log's history wholesale: a checkpoint at seq (stamped
// with digest, 0 for unstamped) plus the removal of every entry segment and
// prior checkpoint, dead or not. A replica that (re)joins a running group
// installs the transferred snapshot with Reset — the transfer is
// authoritative, and entries journaled on the replica's previous timeline
// (before it crashed or was expelled) must not resurface in a later replay.
// A crash part way leaves a prefix of the old history or the new one: the
// segments go oldest first, and recovery stops at the hole that leaves.
func (l *Log) Reset(seq uint32, digest uint64, snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	return l.poison(l.resetLocked(seq, digest, snapshot))
}

func (l *Log) resetLocked(seq uint32, digest uint64, snapshot []byte) error {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	if l.lastSeq > seq {
		l.stats.ResetDiscarded += uint64(l.lastSeq - seq)
		l.flight.Recordf("wal", "reset discarded %d entries beyond seq %d in %s", l.lastSeq-seq, seq, l.dir)
	}
	for _, seg := range l.segments {
		if err := l.fs.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: resetting: %w", err)
		}
		l.stats.SegmentsRemoved++
	}
	l.segments = nil
	l.lastSeq = seq
	// Checkpoints from the discarded timeline must not survive as fallback
	// candidates: the transfer is authoritative.
	for _, old := range l.listCheckpoints() {
		_ = l.fs.Remove(filepath.Join(l.dir, ckptName(old)))
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
			if err := l.fs.Remove(seg.path); err != nil {
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
	defer l.mu.Unlock()
	return l.stats
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
	var err error
	if l.failed == nil {
		err = l.syncActive()
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// writeFileSync writes data to a fresh file and fsyncs it before closing.
func (l *Log) writeFileSync(path string, data []byte) error {
	f, err := l.fs.Create(path)
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
