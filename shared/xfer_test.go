package shared

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"amoeba"
)

// blobSM is a state machine whose snapshot is one fixed blob.
type blobSM struct{ blob []byte }

func (s *blobSM) Apply([]byte)              {}
func (s *blobSM) Snapshot() ([]byte, error) { return s.blob, nil }
func (s *blobSM) Restore(snap []byte) error { s.blob = snap; return nil }

// liveHeap is the heap's live bytes after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle empties the pools' victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDonorKeepsNoServedSnapshot fetches a 1 MiB snapshot from a donor's
// transfer service several times and holds the donor's live heap to less
// than one snapshot's growth: a served snapshot is the joiner's, and the
// donor keeps no copy of it (its RPC server keeps no replies).
func TestDonorKeepsNoServedSnapshot(t *testing.T) {
	const size, fetches = 1 << 20, 4
	ctx := ctxT(t)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	k1, _ := net.NewKernel("donor")
	k2, _ := net.NewKernel("asker")
	blob := make([]byte, size)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	donor, err := Create(ctx, k1, "xfer-heap", &blobSM{blob: blob}, amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer donor.Close()
	cl, err := k2.NewRPCClient()
	if err != nil {
		t.Fatalf("NewRPCClient: %v", err)
	}
	defer cl.Close()
	addr := transferAddr("xfer-heap", donor.group.Info().Self)
	fetch := func() {
		t.Helper()
		callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		reply, err := cl.Call(callCtx, addr, binary.BigEndian.AppendUint32(nil, 0))
		if err != nil {
			t.Fatalf("fetching the snapshot: %v", err)
		}
		if len(reply) != 4+size {
			t.Fatalf("fetched %d bytes, want %d", len(reply), 4+size)
		}
	}
	fetch() // the server's first worker and the route to it
	before := liveHeap()
	for i := 0; i < fetches; i++ {
		fetch()
	}
	// The last reply may still be on its way out of the donor's stack as
	// the call returns: what the donor keeps is what stays.
	var grew int64
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		if grew = int64(liveHeap()) - int64(before); grew < size || time.Now().After(deadline) {
			break
		}
	}
	if grew >= size {
		t.Fatalf("the donor's live heap grew %d bytes over %d fetches of a %d-byte snapshot: it keeps what it served", grew, fetches, size)
	}
}
