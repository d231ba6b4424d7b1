package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"amoeba/obs"
)

// setUp boots the workload's cluster, preloads every key and runs the
// fixed-count warm-up, and reports how long that took. A fixed count (not a
// fixed time) makes setup_s work done, so a change that slows the program
// shows in it.
func setUp(ctx context.Context, sp *spec, cfg config, hub *obs.Hub, keys []string) (*cluster, []*caller, time.Duration, error) {
	t0 := time.Now()
	c, err := boot(ctx, sp, hub, cfg.out)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := c.preload(ctx, keys); err != nil {
		c.close()
		return nil, nil, 0, err
	}
	callers := newCallers(c, cfg.seed, keys)
	var wg sync.WaitGroup
	for _, cl := range callers {
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			cl.warm(ctx, sp.warmup/shrink/len(callers))
		}(cl)
	}
	wg.Wait()
	return c, callers, time.Since(t0), nil
}

func attempts(callers []*caller) (attempted, failed uint64) {
	for _, cl := range callers {
		attempted += cl.attempted
		failed += cl.failed
	}
	return
}

// setUps is how many times an untraced run sets its workload up; setup_s is
// their mean. Not their median, because set-up time has modes: a boot leaves
// none to three of the four shard groups in the state that sits out 50 ms
// retry timers, and proxied-mix's preload then takes 0.35, 0.75 or 1.1 s. The
// median of a few boots jumps between the modes, their mean averages over
// them: resampling 30 measured set-ups, two sets of ten runs came out over
// 12.5% apart 16% of the time with the median of three, 2% with the mean of
// five. (A host hiccup in one set-up is the driver's median over runs to absorb.)
const setUps = 5

// runOne runs one workload in this process and returns what the driver reads.
func runOne(ctx context.Context, sp *spec, cfg config) (*result, error) {
	if cfg.trace {
		return runTraced(ctx, sp, cfg)
	}
	keys := keyTable()
	c, callers, setup, err := setUp(ctx, sp, cfg, nil, keys)
	if err != nil {
		return nil, err
	}
	m := runMeasurement(ctx, callers, cfg.window)
	err = verify(c, callers, keys)
	c.close()
	if err != nil {
		return nil, fmt.Errorf("%s: wrong output: %w", sp.name, err)
	}
	// The repeats run after the measurement, so that nothing of a torn-down
	// cluster is around during it.
	total, n := setup, max(1, setUps/shrink)
	for i := 1; i < n; i++ {
		c, again, setup, err := setUp(ctx, sp, cfg, nil, keys)
		if err != nil {
			return nil, err
		}
		err = verify(c, again, keys)
		c.close()
		if err != nil {
			return nil, fmt.Errorf("%s: wrong output after set-up: %w", sp.name, err)
		}
		total += setup
	}
	attempted, _ := attempts(callers)
	return newResult(endToEndDefs, m.endToEnd(total.Seconds()/float64(n)), attempted)
}
