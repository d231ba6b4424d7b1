// Command benchmark is the repository's one performance benchmark: it boots
// real in-process kv clusters on the memory network, drives four seeded
// closed-loop workloads through kv.Client, checks the outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ones) that
// BENCHMARK.json declares. See README.md in this directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds must equal run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// runLimit is the driver's cap on one run, less a margin: a hung run must
// fail inside it, not linger.
const runLimit = 170 * time.Second

type config struct {
	seed   int64
	window time.Duration // measured time per workload: -seconds, or less in tests
	trace  bool
	out    string
}

// shrink divides the fixed counts (warm-up calls, ladder calls, set-ups per
// run). Only the smoke test, which has ten seconds for every workload in both
// modes, sets it above 1.
var shrink = 1

func main() {
	var cfg config
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (layer counters, traced pass, ladder)")
		aa       = flag.Int("aa", 0, "run N (at least 5) full sets twice, alternating, and write the A/A noise report to "+noisePath)
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same op streams")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per workload")
	flag.StringVar(&cfg.out, "out", "benchmark/out", "directory for span files and the durable workload's logs")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.window = time.Duration(*seconds) * time.Second
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		fatal(fmt.Errorf("bad arguments; see -help"))
	}
	var err error
	switch {
	case *manifest:
		_, err = os.Stdout.Write(manifestJSON())
	case *aa > 0:
		err = runAA(cfg, *aa)
	case *workload == "":
		_, err = runAll(cfg, os.Stdout)
	default:
		sp := specByName(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		time.AfterFunc(runLimit, func() { fatal(fmt.Errorf("%s: still running after %v", sp.name, runLimit)) })
		var res *result
		if res, err = runOne(context.Background(), sp, cfg); err == nil {
			err = res.print(os.Stdout)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// stampKeys orders the output stamp: where and on what a result was measured.
var stampKeys = []string{"commit", "go", "nproc", "gomaxprocs", "host"}

func stamp() map[string]string {
	commit := "unknown" // the driver's checkout is not a git repository
	// -dirty: the tree differs from that commit (as it does while the change
	// that is being measured is still uncommitted).
	git := exec.Command("git", "describe", "--always", "--dirty")
	if wd, err := os.Getwd(); err == nil {
		// Only this directory's own repository counts, not one above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	host, _ := os.Hostname() // a missing name is stamped as empty
	return map[string]string{
		"commit":     commit,
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"host":       fmt.Sprintf("%s %s/%s", host, runtime.GOOS, runtime.GOARCH),
	}
}

func stampLine() string {
	s, parts := stamp(), []string(nil)
	for _, k := range stampKeys {
		parts = append(parts, k+"="+s[k])
	}
	return strings.Join(parts, " ")
}

// result is what one run of one workload reports: the driver contract's four
// keys, printed as the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`

	defs []metricDef // the declared list Metrics was checked against, in print order
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult labels values with their declared units and insists that the set
// is exactly the declared one, so the binary and BENCHMARK.json cannot drift.
// A run reaches here only after verify passed, so nothing failed.
func newResult(defs []metricDef, values map[string]float64, attempted uint64) (*result, error) {
	r := &result{Correct: true, Attempted: attempted, Metrics: make(map[string]metricOut, len(defs)), defs: defs}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(values), len(defs))
	}
	return r, nil
}

// print writes one line per metric, then the JSON object the driver reads.
func (r *result) print(w io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err // a NaN or Inf: some measurement divided by zero
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-30s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload, each in a child process of its own so that no
// workload inherits another's heap, goroutines or page cache state, and
// returns their results by workload name.
func runAll(cfg config, w io.Writer) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "#", stampLine())
	results := make(map[string]*result, len(specs))
	for _, sp := range specs {
		fmt.Fprintf(w, "## %s seed=%d seconds=%v trace=%t\n", sp.name, cfg.seed, cfg.window.Seconds(), cfg.trace)
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(int(cfg.window/time.Second)), "-trace", trace, "-out", cfg.out)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(w, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		res := new(result)
		if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
			return nil, fmt.Errorf("%s: reading the child's result: %w", sp.name, err)
		}
		results[sp.name] = res
	}
	return results, nil
}
