// Command amoeba-bench regenerates the tables and figures of Kaashoek &
// Tanenbaum, "An Evaluation of the Amoeba Group Communication System"
// (ICDCS 1996), by running the group protocols over the calibrated
// discrete-event model of the paper's hardware (30 × 20-MHz MC68030,
// 10 Mbit/s Ethernet, Lance interfaces). Its output is deterministic; the
// live stack's performance numbers come from the benchmark/ package instead.
//
// Usage:
//
//	amoeba-bench                      # run everything
//	amoeba-bench -experiment fig4     # one experiment
//	amoeba-bench -list                # list experiment ids
//
// Experiment ids: table3, fig1, fig3, fig4, fig5, fig6, fig7, fig8, rpc, cm,
// userspace, placement, processing, sharded, batched.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"amoeba/internal/experiments"
	"amoeba/internal/netsim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		which = flag.String("experiment", "all", "experiment id to run, or 'all'")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	model := netsim.DefaultCostModel()
	exps := map[string]func(netsim.CostModel) (*experiments.Table, error){
		"table3":     experiments.Table3,
		"fig1":       experiments.Fig1,
		"fig3":       experiments.Fig3,
		"fig4":       experiments.Fig4,
		"fig5":       experiments.Fig5,
		"fig6":       experiments.Fig6,
		"fig7":       experiments.Fig7,
		"fig8":       experiments.Fig8,
		"rpc":        experiments.RPCComparison,
		"cm":         experiments.CMComparison,
		"userspace":  experiments.UserSpaceAblation,
		"placement":  experiments.SequencerPlacement,
		"processing": experiments.ProcessingScaling,
		"sharded":    experiments.ShardedKV,
		"batched":    experiments.Batched,
	}
	order := []string{"table3", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"rpc", "cm", "userspace", "placement", "processing", "sharded", "batched"}

	if *list {
		ids := make([]string, 0, len(exps))
		for id := range exps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return 0
	}

	var ids []string
	if *which == "all" {
		ids = order
	} else {
		if _, ok := exps[*which]; !ok {
			fmt.Fprintf(os.Stderr, "amoeba-bench: unknown experiment %q (try -list)\n", *which)
			return 2
		}
		ids = []string{*which}
	}

	for _, id := range ids {
		table, err := exps[id](model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amoeba-bench: %s: %v\n", id, err)
			return 1
		}
		fmt.Println(table.String())
	}
	return 0
}
