package shared

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"amoeba"
)

// goroutineRE picks a goroutine's id out of its stack header.
var goroutineRE = regexp.MustCompile(`^goroutine (\d+) `)

// replicaGoroutines returns, by id, the stack of every goroutine but the
// caller's that runs this module's code, except memnet's idle delivery
// loops: the network outlives the replicas and owns those. A delivery loop
// inside a handler counts, since its innermost module frame is the handler.
func replicaGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for i, stack := range bytes.Split(buf, []byte("\n\n")) {
		m := goroutineRE.FindSubmatch(stack)
		if i == 0 || m == nil {
			continue // the caller's own goroutine comes first
		}
		j := bytes.Index(stack, []byte("\namoeba"))
		if j < 0 || bytes.HasPrefix(stack[j+1:], []byte("amoeba/internal/netw/memnet.(*station).deliverLoop")) {
			continue
		}
		out[string(m[1])] = string(stack)
	}
	return out
}

// TestNoGoroutineOutlivesDurableReplicas opens three durable replicas that
// know of each other (Peers 3), so their recovery beacons, transfer servers
// and write-ahead logs all run, adds an in-memory joiner, sends traffic from
// two of them, and closes everything, one durable replica through Leave.
// Afterwards no goroutine running module code may remain but memnet's idle
// delivery loops, which belong to the still-open network. Goroutines of
// other tests that were already running are not counted.
func TestNoGoroutineOutlivesDurableReplicas(t *testing.T) {
	before := replicaGoroutines()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	const name = "durable-leak"

	type opened struct {
		rank int
		r    *Replica
		err  error
	}
	res := make(chan opened, 3)
	for rank := 0; rank < 3; rank++ {
		k, err := net.NewKernel(fmt.Sprintf("leak-%d", rank))
		if err != nil {
			t.Fatalf("kernel %d: %v", rank, err)
		}
		dur := Durability{Dir: filepath.Join(dir, fmt.Sprint(rank)), Rank: rank, Peers: 3, Bootstrap: true}
		go func(rank int) {
			r, err := Open(ctx, k, name, newCounter(), amoeba.GroupOptions{}, dur)
			res <- opened{rank, r, err}
		}(rank)
	}
	durable := make([]*Replica, 3)
	for range durable {
		o := <-res
		if o.err != nil {
			t.Fatalf("Open rank %d: %v", o.rank, o.err)
		}
		durable[o.rank] = o.r
	}
	kj, err := net.NewKernel("leak-joiner")
	if err != nil {
		t.Fatalf("joiner kernel: %v", err)
	}
	joiner, err := Join(ctx, kj, name, newCounter(), amoeba.GroupOptions{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}

	submitAndSettle(t, durable[0], 16)
	submitAndSettle(t, joiner, 16)
	for _, r := range append(durable, joiner) {
		waitCount(t, r, 32)
	}

	joiner.Close()
	if err := durable[1].Leave(ctx); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	durable[0].Close()
	durable[2].Close()

	var left map[string]string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		left = replicaGoroutines()
		for id := range before {
			delete(left, id)
		}
		if len(left) == 0 {
			return
		}
	}
	var stacks []string
	for _, s := range left {
		stacks = append(stacks, s)
	}
	t.Fatalf("%d goroutines outlived their replicas:\n\n%s", len(left), strings.Join(stacks, "\n\n"))
}
