// Command amoeba-kv runs the sharded, replicated key-value service.
//
// Serve mode boots an in-process cluster — N nodes on a memory network, the
// keyspace consistent-hashed across S shard groups, each group a replicated
// state machine with its own sequencer, every node running a kv.Service —
// and exposes it over TCP with a line protocol. Each line is parsed into the
// same versioned kv.Request the in-process client and the RPC proxy speak,
// executed through kv.Client.Do, and the kv.Response rendered back as text —
// the daemon is a codec transcoder, not a second protocol. With -replication
// bounding the replica count, a connection's node proxies foreign shards
// over Amoeba RPC (misroutes answered by ForwardRequest; see STATS):
//
//	PUT <key> <value>            -> OK
//	GET <key>                    -> VALUE <value> | NOTFOUND   (linearizable; served
//	                                from a read lease with -leases, sequenced otherwise)
//	LGET <key>                   -> VALUE <value> | NOTFOUND   (local read)
//	SGET <key> <max-stale>       -> VALUE <value> stale-for=<d> | NOTFOUND stale-for=<d>
//	                                (bounded-staleness read, e.g. SGET k 500ms)
//	DEL <key>                    -> OK true|false              (existed?)
//	CAS <key> <old|-> <new>      -> OK true|false              ("-" = expect absent)
//	MGET <key> <key> ...         -> VALUE <k>=<v> ...
//	TXN [GET k] [PUT k v]
//	    [DEL k] [IF k v|-] ...   -> COMMITTED <k>=<v> ... | ABORTED   (atomic cross-shard txn)
//	RESHARD <n>                  -> OK epoch=<e> shards=<n>            (live split/merge)
//	STATS                        -> shards, epoch, members, proxy counters
//	METRICS                      -> Prometheus text, terminated by END
//	TRACE <id>                   -> a sampled op's cross-node timeline, terminated by END
//	TRACES                       -> retained trace ids, terminated by END
//	FLIGHT                       -> the flight recorder's recent protocol events, terminated by END
//	HEALTH | TOP                 -> the self-audit rollup (TOP adds per-shard detail), terminated by END
//	QUIT                         -> closes the connection
//
// The same metrics are served over HTTP with -metrics-addr: GET /metrics is
// the Prometheus scrape target, GET /flight dumps the flight recorder's
// recent protocol events, GET /trace?id=N one sampled op's timeline.
//
// Keys and values are single whitespace-free tokens; values may be quoted Go
// strings (e.g. "two words") and replies quote values that need it.
//
// With -data-dir the store is durable: every shard replica journals its
// deliveries to a write-ahead log under <data-dir>/<store>/node-<n>/shard-<i>
// and checkpoints snapshots, so killing the daemon and re-running the same
// command brings every key AND the command-id dedup state back — a command
// retried across the restart stays exactly-once. Without it the store is
// in-memory, as in the paper.
//
// Usage:
//
//	amoeba-kv -serve :7070 -shards 4 -nodes 3 -resilience 1 -replication 2
//	amoeba-kv -serve :7070 -data-dir /var/lib/amoeba-kv
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/kv"
	"amoeba/obs"
)

func main() {
	var (
		serveAddr   = flag.String("serve", "", "serve the store on this TCP address (e.g. :7070)")
		shards      = flag.Int("shards", 4, "shard-group count")
		nodes       = flag.Int("nodes", 3, "replica nodes")
		resilience  = flag.Int("resilience", 1, "per-shard resilience degree r")
		replication = flag.Int("replication", 0, "replicas per shard (0 = every node); bounded values exercise the RPC proxy")
		dataDir     = flag.String("data-dir", "", "durable mode: write-ahead logs + checkpoints under this directory (restart recovers all data)")
		walSync     = flag.Bool("wal-sync", false, "fsync every journal append (power-loss durability; slower)")
		leases      = flag.Bool("leases", false, "sequencer read leases: replicas serve linearizable GETs locally with no ordering round; enables SGET bounded-staleness reads")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /health, /flight, and /trace?id=N over HTTP on this address")
		traceMod    = flag.Uint64("trace-mod", 1024, "trace every Nth command id (1 traces everything)")
		auditEvery  = flag.Duration("audit", time.Second, "sequenced state-audit period (0 disables the self-audit driver)")
	)
	flag.Parse()

	if *serveAddr == "" {
		*serveAddr = ":7070"
	}
	os.Exit(serve(*serveAddr, *shards, *nodes, *resilience, *replication, *dataDir, *walSync, *leases, *metricsAddr, *traceMod, *auditEvery))
}

// newHub builds the process-wide observability hub and, when metricsAddr is
// set, starts the HTTP exporter on it. The whole in-process cluster shares
// one hub: every node's stage histograms and counters land in one registry
// (gauges are delta-updated, so sharing is coherent), which is exactly the
// per-process scrape surface Prometheus wants.
func newHub(node string, traceMod uint64, metricsAddr string) *obs.Hub {
	hub := obs.NewHub(obs.Options{Node: node, TraceMod: traceMod})
	if metricsAddr == "" {
		return hub
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = hub.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, hub.Flight().Format())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 0, 64)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, "bad id: %v\n", err)
			return
		}
		fmt.Fprint(w, obs.FormatTrace(id, hub.Tracer().Trace(id)))
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		aud := hub.Health()
		// Rolled-up verdict decides the status code, so a probe needs no
		// parsing: 200 healthy, 503 diverged or degraded.
		if v := aud.Rollup(""); v == obs.VerdictDiverged || v == obs.VerdictDegraded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprint(w, aud.Summary(""))
		fmt.Fprint(w, aud.Format(""))
	})
	ln, err := net.Listen("tcp", metricsAddr)
	if err != nil {
		log.Printf("amoeba-kv: metrics listen %s: %v", metricsAddr, err)
		return hub
	}
	log.Printf("amoeba-kv: metrics on http://%s/metrics", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
	return hub
}

// serve boots the cluster — recovering it from the write-ahead logs when
// -data-dir names an existing deployment — and answers line-protocol
// connections forever.
func serve(addr string, shards, nodes, resilience, replication int, dataDir string, walSync bool, leases bool, metricsAddr string, traceMod uint64, auditEvery time.Duration) int {
	ctx := context.Background()
	network := amoeba.NewMemoryNetwork()
	defer network.Close()
	hub := newHub("amoeba-kv", traceMod, metricsAddr)
	kernels := make([]*amoeba.Kernel, nodes)
	for i := range kernels {
		k, err := network.NewKernel(fmt.Sprintf("kv-node-%d", i))
		if err != nil {
			log.Printf("amoeba-kv: kernel %d: %v", i, err)
			return 1
		}
		k.RegisterObs(hub)
		kernels[i] = k
	}
	opts := kv.Options{Shards: shards, Replication: replication,
		DataDir: dataDir, WALSync: walSync,
		AuditEvery: auditEvery, Leases: leases,
		Group: amoeba.GroupOptions{
			Resilience:   resilience,
			AutoReset:    true,
			MinSurvivors: 1,
			Obs:          hub,
		}}
	if dataDir != "" {
		log.Printf("amoeba-kv: durable store under %s (wal-sync=%v)", dataDir, walSync)
	}
	stores, err := kv.Bootstrap(ctx, kernels, "amoeba-kv", opts)
	if err != nil {
		log.Printf("amoeba-kv: bootstrap: %v", err)
		return 1
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	// Every node serves the access protocol: with bounded replication a
	// connection's node reaches foreign shards through the other nodes'
	// services (direct shard RPC, or ForwardRequest on misroutes).
	services := make([]*kv.Service, len(stores))
	for i, s := range stores {
		svc, err := kv.NewService(s)
		if err != nil {
			log.Printf("amoeba-kv: service %d: %v", i, err)
			return 1
		}
		services[i] = svc
		defer svc.Close()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("amoeba-kv: listen: %v", err)
		return 1
	}
	defer ln.Close()
	repl := replication
	if repl <= 0 {
		repl = nodes
	}
	log.Printf("amoeba-kv: %d shards × %d nodes (r=%d, %d replicas/shard) serving on %s", shards, nodes, resilience, repl, ln.Addr())

	var next atomic.Uint64
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("amoeba-kv: accept: %v", err)
			return 1
		}
		// Spread connections across nodes, as a shard-aware proxy would.
		n := next.Add(1) % uint64(len(stores))
		go handleConn(ctx, conn, stores[n], services, hub)
	}
}

// token renders a value for the wire: quoted only when needed.
func token(v []byte) string {
	s := string(v)
	if s == "" || strings.ContainsAny(s, " \t\"\\") || !strconv.CanBackquote(s) {
		return strconv.Quote(s)
	}
	return s
}

// splitLine tokenizes a protocol line, keeping quoted strings (values with
// spaces) as single tokens.
func splitLine(line string) ([]string, error) {
	var out []string
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quoted string")
			}
			out = append(out, line[i:j+1])
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out, nil
}

// untoken parses a wire token back into a value.
func untoken(tok string) ([]byte, error) {
	if strings.HasPrefix(tok, `"`) {
		s, err := strconv.Unquote(tok)
		if err != nil {
			return nil, err
		}
		return []byte(s), nil
	}
	return []byte(tok), nil
}

// maxLine bounds one protocol line; a longer one ends the connection.
const maxLine = 1 << 20

func handleConn(ctx context.Context, conn net.Conn, s *kv.Store, services []*kv.Service, hub *obs.Hub) {
	defer conn.Close()
	cl := s.NewClient()
	defer cl.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	w := bufio.NewWriter(conn)
	reply := func(format string, args ...any) bool {
		fmt.Fprintf(w, format+"\n", args...)
		return w.Flush() == nil
	}
	for sc.Scan() {
		fields, err := splitLine(sc.Text())
		if err != nil {
			if !reply("ERR %v", err) {
				return
			}
			continue
		}
		if len(fields) == 0 {
			continue
		}
		opCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		ok := dispatch(opCtx, cl, s, services, hub, fields, reply)
		cancel()
		if !ok {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		reply("ERR line longer than %d bytes", maxLine)
	}
}

// parseRequest translates one protocol line into the access-protocol
// Request the whole system speaks. LGET, STATS, and QUIT are connection-local
// and handled by dispatch directly.
func parseRequest(fields []string) (*kv.Request, error) {
	switch strings.ToUpper(fields[0]) {
	case "PUT":
		if len(fields) != 3 {
			return nil, fmt.Errorf("usage: PUT key value")
		}
		val, err := untoken(fields[2])
		if err != nil {
			return nil, err
		}
		return &kv.Request{Op: kv.ReqPut, Key: fields[1], Val: val}, nil
	case "GET":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: GET key")
		}
		return &kv.Request{Op: kv.ReqGet, Keys: []string{fields[1]}}, nil
	case "MGET":
		if len(fields) < 2 {
			return nil, fmt.Errorf("usage: MGET key ...")
		}
		return &kv.Request{Op: kv.ReqGet, Keys: fields[1:]}, nil
	case "DEL":
		if len(fields) != 2 {
			return nil, fmt.Errorf("usage: DEL key")
		}
		return &kv.Request{Op: kv.ReqDelete, Key: fields[1]}, nil
	case "CAS":
		if len(fields) != 4 {
			return nil, fmt.Errorf("usage: CAS key old|- new")
		}
		req := &kv.Request{Op: kv.ReqCAS, Key: fields[1]}
		if fields[2] != "-" {
			expect, err := untoken(fields[2])
			if err != nil {
				return nil, err
			}
			if expect == nil {
				expect = []byte{}
			}
			req.ExpectPresent = true
			req.Expect = expect
		}
		val, err := untoken(fields[3])
		if err != nil {
			return nil, err
		}
		req.Val = val
		return req, nil
	case "TXN":
		// One atomic multi-key transaction: any mix of clauses, evaluated
		// against one locked cross-shard snapshot.
		//
		//	TXN [GET key]... [PUT key value]... [DEL key]... [IF key value|-]...
		//
		// IF key - requires the key to be absent; IF key value requires
		// equality. Any failing IF aborts the whole transaction (ABORTED);
		// otherwise every PUT/DEL lands atomically and the GETs answer the
		// snapshot (COMMITTED k=v ...).
		req := &kv.Request{Op: kv.ReqTxn}
		for i := 1; i < len(fields); {
			switch strings.ToUpper(fields[i]) {
			case "GET":
				if i+1 >= len(fields) {
					return nil, fmt.Errorf("TXN GET needs a key")
				}
				req.Keys = append(req.Keys, fields[i+1])
				i += 2
			case "PUT":
				if i+2 >= len(fields) {
					return nil, fmt.Errorf("TXN PUT needs key and value")
				}
				val, err := untoken(fields[i+2])
				if err != nil {
					return nil, err
				}
				req.Writes = append(req.Writes, kv.TxnWrite{Key: fields[i+1], Val: val})
				i += 3
			case "DEL":
				if i+1 >= len(fields) {
					return nil, fmt.Errorf("TXN DEL needs a key")
				}
				req.Writes = append(req.Writes, kv.TxnWrite{Key: fields[i+1], Delete: true})
				i += 2
			case "IF":
				if i+2 >= len(fields) {
					return nil, fmt.Errorf("TXN IF needs key and value (or - for absent)")
				}
				cond := kv.TxnCond{Key: fields[i+1]}
				if fields[i+2] != "-" {
					expect, err := untoken(fields[i+2])
					if err != nil {
						return nil, err
					}
					if expect == nil {
						expect = []byte{}
					}
					cond.ExpectPresent = true
					cond.Expect = expect
				}
				req.Conds = append(req.Conds, cond)
				i += 3
			default:
				return nil, fmt.Errorf("TXN: unknown clause %q (want GET, PUT, DEL, or IF)", fields[i])
			}
		}
		if len(req.Keys)+len(req.Writes)+len(req.Conds) == 0 {
			return nil, fmt.Errorf("usage: TXN [GET k] [PUT k v] [DEL k] [IF k v|-] ...")
		}
		return req, nil
	default:
		return nil, fmt.Errorf("unknown command %q", fields[0])
	}
}

// renderResponse translates a Response back into the line protocol. verb is
// the request's line-protocol command: GET and MGET share ReqGet on the
// wire but render differently (a single-key MGET still answers k=v pairs).
func renderResponse(verb string, req *kv.Request, resp *kv.Response, reply func(string, ...any) bool) bool {
	switch req.Op {
	case kv.ReqPut:
		return reply("OK")
	case kv.ReqDelete, kv.ReqCAS:
		return reply("OK %v", resp.OK)
	case kv.ReqGet:
		if verb == "GET" {
			if !resp.Found[0] {
				return reply("NOTFOUND")
			}
			return reply("VALUE %s", token(resp.Values[0]))
		}
		parts := make([]string, 0, len(req.Keys))
		for i, k := range req.Keys {
			if resp.Found[i] {
				parts = append(parts, fmt.Sprintf("%s=%s", k, token(resp.Values[i])))
			}
		}
		return reply("VALUE %s", strings.Join(parts, " "))
	case kv.ReqTxn:
		if resp.CondFailed {
			return reply("ABORTED")
		}
		if !resp.OK {
			return reply("ERR transaction did not commit")
		}
		parts := make([]string, 0, len(req.Keys))
		for i, k := range req.Keys {
			if i < len(resp.Found) && resp.Found[i] {
				parts = append(parts, fmt.Sprintf("%s=%s", k, token(resp.Values[i])))
			}
		}
		if len(parts) == 0 {
			return reply("COMMITTED")
		}
		return reply("COMMITTED %s", strings.Join(parts, " "))
	default:
		return reply("ERR unrenderable op %d", req.Op)
	}
}

func dispatch(ctx context.Context, cl *kv.Client, s *kv.Store, services []*kv.Service, hub *obs.Hub, fields []string, reply func(string, ...any) bool) bool {
	// multiline streams a multi-line body over the single-line protocol,
	// terminated by END so a scripted client knows where the dump stops.
	multiline := func(body string) bool {
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if !reply("%s", line) {
				return false
			}
		}
		return reply("END")
	}
	switch strings.ToUpper(fields[0]) {
	case "METRICS":
		var b strings.Builder
		if err := hub.Registry().WritePrometheus(&b); err != nil {
			return reply("ERR %v", err)
		}
		return multiline(b.String())
	case "TRACE":
		if len(fields) != 2 {
			return reply("ERR usage: TRACE id")
		}
		id, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			return reply("ERR bad trace id %q", fields[1])
		}
		return multiline(obs.FormatTrace(id, hub.Tracer().Trace(id)))
	case "TRACES":
		var b strings.Builder
		for _, id := range hub.Tracer().IDs() {
			fmt.Fprintf(&b, "%d\n", id)
		}
		return multiline(b.String())
	case "FLIGHT":
		return multiline(hub.Flight().Format())
	case "HEALTH":
		return multiline(hub.Health().Summary(""))
	case "TOP":
		return multiline(hub.Health().Summary("") + hub.Health().Format(""))
	case "SGET":
		if len(fields) != 3 {
			return reply("ERR usage: SGET key max-staleness")
		}
		bound, err := time.ParseDuration(fields[2])
		if err != nil || bound <= 0 {
			return reply("ERR bad staleness bound %q", fields[2])
		}
		v, found, staleFor, err := cl.StaleGet(ctx, fields[1], bound)
		if err != nil {
			return reply("ERR %v", err)
		}
		if !found {
			return reply("NOTFOUND stale-for=%s", staleFor.Round(time.Millisecond))
		}
		return reply("VALUE %s stale-for=%s", token(v), staleFor.Round(time.Millisecond))
	case "LGET":
		if len(fields) != 2 {
			return reply("ERR usage: LGET key")
		}
		v, found := cl.LocalGet(fields[1])
		if !found {
			return reply("NOTFOUND")
		}
		return reply("VALUE %s", token(v))
	case "RESHARD":
		if len(fields) != 2 {
			return reply("ERR usage: RESHARD shard-count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return reply("ERR bad shard count %q", fields[1])
		}
		// A handoff can outlast one op budget: give it its own.
		rctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err = s.Resharding(rctx, n)
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		rt := s.Routing()
		return reply("OK epoch=%d shards=%d", rt.Epoch, rt.Shards)
	case "STATS":
		rt := s.Routing()
		members := make([]string, s.Shards())
		for i := range members {
			members[i] = strconv.Itoa(s.Members(i))
		}
		var served, forwarded, scattered uint64
		for _, svc := range services {
			st := svc.Stats()
			served += st.Served
			forwarded += st.Forwarded
			scattered += st.Scattered
		}
		cs := cl.Stats()
		return reply("STATS shards=%d epoch=%d members=[%s] served=%d forwarded=%d scattered=%d local=%d remote=%d",
			s.Shards(), rt.Epoch, strings.Join(members, " "), served, forwarded, scattered, cs.LocalOps, cs.RemoteOps)
	case "QUIT":
		reply("BYE")
		return false
	}
	req, err := parseRequest(fields)
	if err != nil {
		return reply("ERR %v", err)
	}
	resp, err := cl.Do(ctx, req)
	if err != nil {
		return reply("ERR %v", err)
	}
	return renderResponse(strings.ToUpper(fields[0]), req, resp, reply)
}
