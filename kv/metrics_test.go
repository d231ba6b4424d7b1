package kv

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"amoeba"
	"amoeba/obs"
)

// TestRequiredMetricFamiliesRender is the regression guard on the
// observability layer itself: a durable, leased, audited store behind a
// Service, driven through a dialed client, must export every metric family
// the pipeline instrumentation is supposed to populate.
func TestRequiredMetricFamiliesRender(t *testing.T) {
	ctx := ctxT(t, 60*time.Second)
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	hub := obs.NewHub(obs.Options{Node: "metrics-test", TraceMod: 1})
	stores := bootDurable(t, net, "metrics", t.TempDir(), 2, Options{
		Shards:     2,
		Leases:     true,
		AuditEvery: 50 * time.Millisecond,
		Group:      amoeba.GroupOptions{Obs: hub},
	}, 0)
	defer closeAll(stores)
	startServices(t, stores)

	ext, err := net.NewKernel("metrics-client")
	if err != nil {
		t.Fatalf("client kernel: %v", err)
	}
	cl, err := Dial(ext, "metrics", DialOptions{Node: 0, Obs: hub})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	keys := []string{keyOnShard(stores[0], 0, "m"), keyOnShard(stores[0], 1, "m")}
	for i := 0; i < 16; i++ {
		if err := cl.Put(ctx, keys[i%2], []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, _, err := cl.Get(ctx, keys[0]); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, _, _, err := cl.StaleGet(ctx, keys[1], time.Second); err != nil {
		t.Fatalf("StaleGet: %v", err)
	}
	res, err := cl.Txn(ctx, TxnOp{Writes: []TxnWrite{
		{Key: keys[0], Val: []byte("t")},
		{Key: keys[1], Val: []byte("t")},
	}})
	if err != nil || !res.Committed {
		t.Fatalf("Txn = %+v, %v", res, err)
	}
	// A node-bound client too: its local fast path is a separate source.
	local := stores[1].NewClient()
	defer local.Close()
	if _, _, err := local.Get(ctx, keys[0]); err != nil {
		t.Fatalf("local Get: %v", err)
	}
	// The audit tier moves once two replicas have reported the same audit.
	waitVerdict(t, hub.Health(), "kv/metrics/", obs.VerdictOK, "first audit")

	var b strings.Builder
	if err := hub.Registry().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	// sample finds a family's value: a counter or gauge's own line, or a
	// summary's _count line.
	lines := strings.Split(b.String(), "\n")
	sample := func(name string) (float64, bool) {
		for _, line := range lines {
			if strings.HasPrefix(line, name+"{") || strings.HasPrefix(line, name+"_count{") {
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	// moved marks the families this workload must have populated; the rest
	// count events an honest fault-free run may never see, or that wait on
	// lease arming, and need only render.
	for _, f := range []struct {
		name  string
		moved bool
	}{
		// Sequencer pipeline stages.
		{"amoeba_seq_append_ns", true},
		{"amoeba_seq_multicast_ns", true},
		{"amoeba_seq_batch_fill", true},
		// Delivery and apply.
		{"amoeba_group_deliver_wait_ns", true},
		{"amoeba_replica_apply_ns", true},
		// Durable tier.
		{"amoeba_wal_append_ns", true},
		{"amoeba_wal_appends_total", true},
		{"amoeba_wal_checkpoints_rejected_total", false},
		// Core protocol counters.
		{"amoeba_core_sent_total", true},
		{"amoeba_core_ordered_total", true},
		{"amoeba_core_delivered_total", true},
		{"amoeba_core_lease_grants_total", false},
		{"amoeba_core_lease_renewals_total", false},
		// History pressure: what a full sequencer history cost.
		{"amoeba_core_dropped_full_total", false},
		{"amoeba_core_order_parked_total", false},
		{"amoeba_core_status_solicits_total", false},
		// Access tier.
		{"amoeba_kv_client_local_ops_total", true},
		{"amoeba_kv_client_remote_ops_total", true},
		{"amoeba_kv_service_served_total", true},
		{"amoeba_kv_service_forwarded_total", false},
		// Transaction tier.
		{"amoeba_kv_txn_prepare_ns", true},
		{"amoeba_kv_txn_resolve_ns", true},
		{"amoeba_kv_txn_total_ns", true},
		{"amoeba_kv_client_txn_committed_total", true},
		{"amoeba_kv_client_txn_conflict_retries_total", false},
		// Read-lease tier.
		{"amoeba_kv_lease_reads_total", false},
		{"amoeba_kv_lease_fallbacks_total", false},
		{"amoeba_kv_stale_reads_total", false},
		{"amoeba_kv_stale_fallbacks_total", false},
		{"amoeba_kv_client_lease_reads_total", false},
		{"amoeba_kv_client_stale_reads_total", false},
		// Self-audit tier.
		{"amoeba_health_reports_total", true},
		{"amoeba_health_audits_total", true},
		{"amoeba_health_divergence_total", false},
		{"amoeba_health_apply_lag", false},
		{"amoeba_health_audit_staleness_ms", false},
		{"amoeba_health_diverged", false},
	} {
		v, ok := sample(f.name)
		if !ok {
			t.Errorf("required family %s missing from the export", f.name)
		} else if f.moved && v == 0 {
			t.Errorf("family %s rendered but the workload never moved it", f.name)
		}
	}
}
