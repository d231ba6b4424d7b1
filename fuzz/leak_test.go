package fuzz

import (
	"bytes"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutineRE picks a goroutine's id out of its stack header.
var goroutineRE = regexp.MustCompile(`^goroutine (\d+) `)

// moduleGoroutines returns, by id, the stack of every goroutine but the
// caller's that runs this module's code, except memnet's idle delivery
// loops, which belong to a network that is still open. A delivery loop
// inside a handler counts, since its innermost module frame is the handler.
func moduleGoroutines() map[string]string {
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

// TestNoGoroutineOutlivesHarnessRun runs one short harness schedule — a
// crash and restart, a partition and heal, over durable nodes with
// recording clients — and then requires that no goroutine running module
// code remains: the harness's clients, nodes, logs and network are all its
// own to stop. Goroutines of other tests that were already running are not
// counted.
func TestNoGoroutineOutlivesHarnessRun(t *testing.T) {
	before := moduleGoroutines()
	sched := Schedule{Seed: 5, Events: []Event{
		{At: 100 * time.Millisecond, Kind: EvCrash, A: 1},
		{At: 200 * time.Millisecond, Kind: EvPartition, A: 0, B: 2},
		{At: 300 * time.Millisecond, Kind: EvHeal},
		{At: 400 * time.Millisecond, Kind: EvRestart, A: 1},
	}}
	res := Run(Config{Clients: 2, Keys: 2, Tail: 300 * time.Millisecond}, sched)
	if res.Err != nil {
		t.Fatalf("harness error: %v", res.Err)
	}
	if res.Ops == 0 {
		t.Fatal("the run recorded no operations")
	}

	var left map[string]string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		left = moduleGoroutines()
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
	t.Fatalf("%d goroutines outlived the harness run:\n\n%s", len(left), strings.Join(stacks, "\n\n"))
}
