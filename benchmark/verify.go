package main

import (
	"bytes"
	"fmt"
	"time"
)

// verify is the correctness check every run ends with. The workloads inject
// no faults, so any failed call is itself a wrong output. Beyond that:
//   - every value read back during the run was one written to its key
//     (checked per reply by the callers), by a writer that had issued it;
//   - once the callers have stopped, every replica hosting a key holds the
//     same value, and that value is some caller's last acknowledged write to
//     the key (the write ordered last is necessarily its writer's last), or
//     the preloaded value if no caller wrote it.
func verify(c *cluster, callers []*caller, keys []string) error {
	for _, cl := range callers {
		if cl.failed > 0 {
			return fmt.Errorf("caller %d: %d of %d calls failed, first: %v", cl.id, cl.failed, cl.attempted, cl.firstErr)
		}
		if cl.violation != "" {
			return fmt.Errorf("caller %d: %s", cl.id, cl.violation)
		}
		if cl.maxSeen[preloadWriter] > 0 {
			return fmt.Errorf("caller %d read a preload value with counter %d", cl.id, cl.maxSeen[preloadWriter])
		}
		for w, other := range callers {
			if cl.maxSeen[w] > other.counter {
				return fmt.Errorf("caller %d read counter %d of writer %d, which issued only %d", cl.id, cl.maxSeen[w], w, other.counter)
			}
		}
	}
	// Replicas apply asynchronously: a member may trail the replica that
	// acknowledged the last write. Give the stragglers a moment to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := converged(c, callers, keys)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func converged(c *cluster, callers []*caller, keys []string) error {
	readers := make([]func(string) ([]byte, bool), len(c.stores))
	for i, s := range c.stores {
		cl := s.NewClient() // bound client: LocalGet reads this node's replica
		defer cl.Close()
		readers[i] = cl.LocalGet
	}
	var buf [valueSize]byte
	for k, key := range keys {
		shard := c.stores[0].ShardFor(key)
		var agreed []byte
		for n, s := range c.stores {
			if !s.HostsShard(shard) {
				continue
			}
			v, ok := readers[n](key)
			if !ok {
				return fmt.Errorf("%s is absent on node %d", key, n)
			}
			if agreed == nil {
				agreed = v
			} else if !bytes.Equal(agreed, v) {
				return fmt.Errorf("%s differs between replicas: %q vs %q on node %d", key, agreed, v, n)
			}
		}
		if agreed == nil {
			return fmt.Errorf("no node hosts %s", key)
		}
		legal := false
		unwritten := true
		for _, cl := range callers {
			if n := cl.lastWrite[k]; n > 0 {
				unwritten = false
				legal = legal || bytes.Equal(agreed, fillValue(&buf, key, cl.id, n))
			}
		}
		if unwritten {
			legal = bytes.Equal(agreed, fillValue(&buf, key, preloadWriter, 0))
		}
		if !legal {
			return fmt.Errorf("%s ended as %q, which is no caller's last write to it", key, agreed)
		}
	}
	return nil
}
