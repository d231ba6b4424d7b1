package experiments

import (
	"testing"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/netsim"
)

func TestSoloThroughput(t *testing.T) {
	g, err := NewSimGroup(GroupParams{Members: 1, Method: core.MethodPB, Model: netsim.DefaultCostModel(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan float64, 1)
	go func() { done <- g.MeasureThroughput(0, ThroughputWindow) }()
	select {
	case tp := <-done:
		t.Logf("solo throughput: %.0f msg/s", tp)
	case <-time.After(10 * time.Second):
		t.Fatalf("solo throughput hung at virtual time %v", g.Engine.Now())
	}
}
