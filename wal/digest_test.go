package wal

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// snapDigest is the test's stand-in for a state-machine digest: a hash of
// the snapshot bytes, so a verify hook can recompute it from whatever a
// checkpoint restored.
func snapDigest(snap []byte) uint64 {
	h := fnv.New64a()
	h.Write(snap)
	return h.Sum64()
}

// recoverVerified runs Recover with a verify hook that recomputes
// the digest of the restored snapshot — the same restore-then-verify dance a
// real state machine does.
func recoverVerified(t *testing.T, l *Log) (snapshot []byte, snapSeq uint32, entries []Entry, last uint32) {
	t.Helper()
	var cur []byte
	last, err := l.Recover(func(snap []byte, seq uint32) error {
		cur = append([]byte(nil), snap...)
		snapshot, snapSeq = cur, seq
		return nil
	}, func(e Entry) error {
		entries = append(entries, e)
		return nil
	}, func(seq uint32, digest uint64) bool {
		return snapDigest(cur) == digest
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return snapshot, snapSeq, entries, last
}

// TestDigestMismatchFallsBackToPreviousCheckpoint is the tentpole recovery
// property: a checkpoint whose stamped digest does not match the state it
// restores is refused, and recovery falls back to the retained predecessor
// plus a longer replay — trading startup time for a verified state.
func TestDigestMismatchFallsBackToPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 5; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	good := []byte("state@5")
	if err := l.Checkpoint(5, snapDigest(good), good); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for seq := uint32(6); seq <= 10; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// The newest checkpoint's snapshot does not match its stamp — the
	// on-disk stand-in for silent state corruption at checkpoint time.
	bad := []byte("state@10")
	if err := l.Checkpoint(10, snapDigest(bad)^0xdead, bad); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, snapSeq, entries, last := recoverVerified(t, l2)
	if string(snap) != "state@5" || snapSeq != 5 {
		t.Fatalf("recovered snapshot %q @%d, want the verified state@5 @5", snap, snapSeq)
	}
	if last != 10 || len(entries) != 5 || entries[0].Seq != 6 {
		t.Fatalf("replayed %d entries last=%d, want the longer 6..10 replay", len(entries), last)
	}
	if got := l2.Stats().CheckpointsRejected; got != 1 {
		t.Fatalf("CheckpointsRejected = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(10))); !os.IsNotExist(err) {
		t.Fatal("refused checkpoint file not removed")
	}
	// The surviving good checkpoint is still there for the next restart.
	if _, err := os.Stat(filepath.Join(dir, ckptName(5))); err != nil {
		t.Fatalf("fallback checkpoint missing: %v", err)
	}
	if err := l2.Append([]Entry{entry(11)}); err != nil {
		t.Fatalf("Append after fallback: %v", err)
	}
}

// TestAllCheckpointsRefusedReplaysFromScratch: when every retained
// checkpoint fails verification, recovery clears the state machine
// (restore(nil, 0)) and replays the journal from the beginning rather than
// trusting any restored state.
func TestAllCheckpointsRefusedReplaysFromScratch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 8; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	bad := []byte("state@8")
	if err := l.Checkpoint(8, snapDigest(bad)^1, bad); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	var restores int
	var lastRestore []byte
	var entries []Entry
	last, err := l2.Recover(func(snap []byte, seq uint32) error {
		restores++
		lastRestore = snap
		return nil
	}, func(e Entry) error {
		entries = append(entries, e)
		return nil
	}, func(seq uint32, digest uint64) bool {
		return false // refuse everything
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// The refused restore must have been undone: the final restore call is
	// the nil reset, and replay covers the whole journal.
	if lastRestore != nil {
		t.Fatalf("final restore %q, want nil (state machine cleared)", lastRestore)
	}
	if restores < 2 {
		t.Fatalf("%d restore calls, want the refused one plus the clearing reset", restores)
	}
	if last != 8 || len(entries) != 8 || entries[0].Seq != 1 {
		t.Fatalf("replayed %d entries last=%d, want the full 1..8 journal", len(entries), last)
	}
	if got := l2.Stats().CheckpointsRejected; got == 0 {
		t.Fatal("no rejected checkpoints counted")
	}
	if err := l2.Append([]Entry{entry(9)}); err != nil {
		t.Fatalf("Append after scratch recovery: %v", err)
	}
}

// TestUnstampedCheckpointSkipsVerification: digest 0 marks a checkpoint
// written by a state machine with no digester — verification must not
// refuse it (there is nothing to check against).
func TestUnstampedCheckpointSkipsVerification(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append([]Entry{entry(1), entry(2)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Checkpoint(2, 0, []byte("legacy@2")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	var snap []byte
	var snapSeq uint32
	last, err := l2.Recover(func(s []byte, seq uint32) error {
		snap = append([]byte(nil), s...)
		snapSeq = seq
		return nil
	}, func(Entry) error { return nil }, func(seq uint32, digest uint64) bool {
		t.Fatal("verify called for an unstamped checkpoint")
		return false
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if string(snap) != "legacy@2" || snapSeq != 2 || last != 2 {
		t.Fatalf("recovered %q @%d last=%d, want legacy@2 @2 2", snap, snapSeq, last)
	}
}

// TestTornCheckpointWithDigestFallsBack: a checkpoint file truncated inside
// the digest-stamped header (shorter than crc|seq|digest) is structurally
// invalid and recovery must fall back to the previous good one.
func TestTornCheckpointWithDigestFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint32(1); seq <= 4; seq++ {
		if err := l.Append([]Entry{entry(seq)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	good := []byte("state@3")
	if err := l.Checkpoint(3, snapDigest(good), good); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()

	// Forge a newer checkpoint torn mid-header (12 of 16 header bytes).
	if err := os.WriteFile(filepath.Join(dir, ckptName(4)), make([]byte, 12), 0o644); err != nil {
		t.Fatalf("forge torn checkpoint: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	snap, snapSeq, entries, last := recoverVerified(t, l2)
	if string(snap) != "state@3" || snapSeq != 3 {
		t.Fatalf("recovered %q @%d, want state@3 @3", snap, snapSeq)
	}
	if last != 4 || len(entries) != 1 || entries[0].Seq != 4 {
		t.Fatalf("replayed %v last=%d, want just seq 4", entries, last)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(4))); !os.IsNotExist(err) {
		t.Fatal("torn checkpoint not removed")
	}
}
