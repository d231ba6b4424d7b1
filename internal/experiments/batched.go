package experiments

import (
	"fmt"

	"amoeba/internal/core"
	"amoeba/internal/netsim"
)

// BatchDepths is the pipelining-depth sweep of the batched-ordering
// experiment.
var BatchDepths = []int{1, 4, 16}

// BatchedResult is one depth point of the batched-ordering experiment.
type BatchedResult struct {
	Depth      int
	MsgsPerSec float64
	AvgBatch   float64 // msgs per ordering batch
	MaxBatch   uint64
}

// BatchedPoint measures single-group ordered throughput at one pipelining
// depth: a 6-member group on the modelled hardware, the five non-sequencer
// members each keep `depth` sends outstanding (0-byte payloads, PB,
// r=0). Depth 1 pins SendWindow and MaxBatch to 1 — the seed's unbatched
// one-request-at-a-time path — so the sweep's speedups are measured against
// the pre-batching protocol, not merely against an idle pipeline.
func BatchedPoint(model netsim.CostModel, depth int) (BatchedResult, error) {
	p := GroupParams{Members: 6, Method: core.MethodPB, Model: model, Seed: 1}
	if depth <= 1 {
		p.SendWindow, p.MaxBatch = 1, 1
	} else {
		// A small window keeps requests flowing while queued sends
		// coalesce up to the depth; the batch size then self-tunes to
		// the sequencer round-trip, exactly like group commit.
		p.SendWindow, p.MaxBatch = 2, depth
	}
	g, err := NewSimGroup(p)
	if err != nil {
		return BatchedResult{}, err
	}
	var senders []int
	for i := 1; i < p.Members; i++ {
		senders = append(senders, i)
	}
	g.StartPipelinedSenders(0, depth, senders...)
	warmup := ThroughputWindow / 5
	g.Engine.RunUntil(g.Engine.Now() + warmup)
	startCount := g.Delivered(0)
	startTime := g.Engine.Now()
	g.Engine.RunUntil(startTime + ThroughputWindow)
	elapsed := g.Engine.Now() - startTime

	res := BatchedResult{
		Depth:      depth,
		MsgsPerSec: float64(g.Delivered(0)-startCount) / elapsed.Seconds(),
	}
	st := g.Eps[0].Stats()
	if st.OrderedBatches > 0 {
		res.AvgBatch = float64(st.BatchedMsgs) / float64(st.OrderedBatches)
	}
	res.MaxBatch = st.MaxBatchMsgs
	return res, nil
}

// Batched reproduces the batching claim of the paper's conclusion 1 as a
// table over the depth sweep: sequencer-based ordering is processing-bound,
// so coalescing requests multiplies per-group throughput without touching
// the protocol's guarantees.
func Batched(model netsim.CostModel) (*Table, error) {
	t := &Table{
		ID:        "Batched ordering",
		Title:     "single-group ordered throughput vs pipelining depth (6 members, 5 senders, 0 B, PB, r=0)",
		PaperNote: "conclusion 1: throughput is processing-bound at the sequencer; amortising per-request work across a batch multiplies it",
		Columns:   []string{"depth", "msgs/s", "speedup", "avg batch", "max batch"},
	}
	var base float64
	for _, depth := range BatchDepths {
		r, err := BatchedPoint(model, depth)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = r.MsgsPerSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.MsgsPerSec / base
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Depth),
			msgsPerS(r.MsgsPerSec),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f", r.AvgBatch),
			fmt.Sprintf("%d", r.MaxBatch),
		})
	}
	return t, nil
}
