package kv

import (
	"fmt"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
)

// TestNoCoreRetriesOnLosslessFabric holds the group protocol's fault-free
// invariant at the kv surface: 2 000 Puts through Client.Do from a node that
// does not sequence the shard fill the sequencer's 128-entry history more than
// fifteen times over, and on the in-memory fabric, which drops nothing, not
// one request retry timer may fire. (Each refill used to cost the sender one
// RetryInterval; see internal/core's TestNoRetryOnLosslessFabric.)
func TestNoCoreRetriesOnLosslessFabric(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "noretry-test"})
	stores := newCluster(t, ctx, net, "noretry", 3, Options{
		Shards: 1,
		Group:  amoeba.GroupOptions{Obs: hub},
	})
	defer closeAll(stores)
	cl := stores[1].NewClient() // shard 0 is created, and so sequenced, by node 0
	defer cl.Close()

	const puts = 2000
	for i := 0; i < puts; i++ {
		req := &Request{Op: ReqPut, Key: fmt.Sprintf("k%04d", i), Val: []byte("v")}
		if _, err := cl.Do(ctx, req); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	counters := make(map[string]uint64)
	for _, s := range hub.Registry().Counters() {
		counters[s.Name] = s.Value
	}
	if got := counters["amoeba_core_ordered_total"]; got < puts {
		t.Fatalf("amoeba_core_ordered_total = %d, want at least %d: the registry is not seeing the shard group", got, puts)
	}
	if got := counters["amoeba_core_request_retries_total"]; got != 0 {
		t.Fatalf("amoeba_core_request_retries_total = %d on a lossless fabric, want 0 (parked %d, solicits %d, refused %d)",
			got, counters["amoeba_core_order_parked_total"], counters["amoeba_core_status_solicits_total"],
			counters["amoeba_core_dropped_full_total"])
	}
}
