package fuzz

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/kv"
)

// TestHistoryRecordsConcurrentClientsCompletely drives many concurrent
// recording clients and verifies the history is complete and well-formed: no
// lost or duplicated invoke-return pairs, windows ordered, per-client events
// sequential. The checker's verdicts are only as good as this bookkeeping.
func TestHistoryRecordsConcurrentClientsCompletely(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	kernels := make([]*amoeba.Kernel, 2)
	for i := range kernels {
		k, err := net.NewKernel(fmt.Sprintf("hist-node-%d", i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		kernels[i] = k
	}
	stores, err := kv.Bootstrap(ctx, kernels, "hist", kv.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	const (
		clients = 6
		opsEach = 40
	)
	h := NewHistory()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := stores[c%len(stores)].NewClient()
		rc := Record(cl, h, c)
		wg.Add(1)
		go func(c int, rc *RecordingClient) {
			defer wg.Done()
			defer cl.Close()
			key := fmt.Sprintf("k%d", c%3) // contend across clients
			for i := 0; i < opsEach; i++ {
				switch i % 5 {
				case 0:
					_ = rc.Put(ctx, key, []byte(fmt.Sprintf("c%d-%d", c, i)))
				case 1:
					_, _, _ = rc.Get(ctx, key)
				case 2:
					_, _ = rc.CAS(ctx, key, nil, []byte("create"))
				case 3:
					_, _ = rc.MGet(ctx, "k0", "k1") // one OpTxn event
				case 4:
					_, _ = rc.Delete(ctx, key)
				}
			}
		}(c, rc)
	}
	wg.Wait()

	evs := h.Events()
	// Every arm records exactly one event: MGet is one OpTxn snapshot, not
	// per-key gets.
	want := clients * opsEach
	if len(evs) != want {
		t.Fatalf("recorded %d events, want %d", len(evs), want)
	}
	perClient := make(map[int][]HistoryEvent)
	for _, e := range evs {
		if e.Invoke < 0 {
			t.Fatalf("event with negative invoke: %+v", e)
		}
		if e.Return >= 0 && e.Return < e.Invoke {
			t.Fatalf("event returns before it invokes: %+v", e)
		}
		if e.Err != "" && e.Return >= 0 {
			t.Fatalf("failed event with a definite return: %+v", e)
		}
		perClient[e.Client] = append(perClient[e.Client], e)
	}
	if len(perClient) != clients {
		t.Fatalf("events from %d clients, want %d", len(perClient), clients)
	}
	for c, ces := range perClient {
		if len(ces) != opsEach {
			t.Fatalf("client %d recorded %d events, want %d", c, len(ces), opsEach)
		}
	}
}
