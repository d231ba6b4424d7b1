package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba"
	"amoeba/kv"
	"amoeba/obs"
)

// daemon is a one-process in-memory store behind handleConn, reached over
// net.Pipe instead of a TCP listener.
type daemon struct {
	t        *testing.T
	ctx      context.Context
	stores   []*kv.Store
	services []*kv.Service
	hub      *obs.Hub
	conns    sync.WaitGroup
}

func bootDaemon(t *testing.T) *daemon {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	network := amoeba.NewMemoryNetwork()
	d := &daemon{t: t, ctx: ctx, hub: obs.NewHub(obs.Options{Node: "daemon-test", TraceMod: 1})}
	kernels := make([]*amoeba.Kernel, 2)
	for i := range kernels {
		k, err := network.NewKernel(fmt.Sprintf("daemon-node-%d", i))
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
		kernels[i] = k
	}
	stores, err := kv.Bootstrap(ctx, kernels, "daemon", kv.Options{
		Shards: 4,
		Leases: true,
		Group:  amoeba.GroupOptions{Resilience: 1, AutoReset: true, MinSurvivors: 1, Obs: d.hub},
	})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	d.stores = stores
	for _, s := range stores {
		svc, err := kv.NewService(s)
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		d.services = append(d.services, svc)
	}
	t.Cleanup(func() {
		d.conns.Wait() // every handleConn saw its client hang up
		for _, svc := range d.services {
			svc.Close()
		}
		for _, s := range d.stores {
			s.Close()
		}
		network.Close()
	})
	return d
}

// lineConn is the client end of one protocol connection.
type lineConn struct {
	t    *testing.T
	conn net.Conn
	sc   *bufio.Scanner
}

func (d *daemon) dial(node int) *lineConn {
	d.t.Helper()
	client, server := net.Pipe()
	// A reply that never comes fails the test instead of hanging it.
	if err := client.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		d.t.Fatalf("SetDeadline: %v", err)
	}
	d.conns.Add(1)
	go func() {
		defer d.conns.Done()
		handleConn(d.ctx, server, d.stores[node], d.services, d.hub)
	}()
	c := &lineConn{t: d.t, conn: client, sc: bufio.NewScanner(client)}
	d.t.Cleanup(func() { client.Close() })
	return c
}

// try sends one line and returns the one-line reply.
func (c *lineConn) try(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", fmt.Errorf("%q: write: %v", line, err)
	}
	if !c.sc.Scan() {
		return "", fmt.Errorf("%q: no reply (%v)", line, c.sc.Err())
	}
	return c.sc.Text(), nil
}

// cmd is try for the test's own goroutine: no reply is fatal.
func (c *lineConn) cmd(line string) string {
	c.t.Helper()
	reply, err := c.try(line)
	if err != nil {
		c.t.Fatal(err)
	}
	return reply
}

// multi sends one line and returns the reply body up to END.
func (c *lineConn) multi(line string) []string {
	c.t.Helper()
	var body []string
	for reply := c.cmd(line); reply != "END"; {
		if strings.HasPrefix(reply, "ERR") {
			c.t.Fatalf("%q = %q", line, reply)
		}
		body = append(body, reply)
		if !c.sc.Scan() {
			c.t.Fatalf("%q: reply ended before END (%v)", line, c.sc.Err())
		}
		reply = c.sc.Text()
	}
	return body
}

// want sends each line and requires its exact reply.
func (c *lineConn) want(steps ...[2]string) {
	c.t.Helper()
	for _, s := range steps {
		if got := c.cmd(s[0]); got != s[1] {
			c.t.Fatalf("%q = %q, want %q", s[0], got, s[1])
		}
	}
}

func TestEveryVerb(t *testing.T) {
	d := bootDaemon(t)
	c := d.dial(0)

	c.want(
		[2]string{"GET missing", "NOTFOUND"},
		[2]string{"PUT a 1", "OK"},
		[2]string{"get a", "VALUE 1"}, // verbs are case-insensitive
		[2]string{"LGET a", "VALUE 1"},
		[2]string{"LGET missing", "NOTFOUND"},
		[2]string{`PUT q "two words"`, "OK"},
		[2]string{"GET q", `VALUE "two words"`},
		[2]string{`PUT e ""`, "OK"},
		[2]string{"GET e", `VALUE ""`},
		[2]string{"DEL q", "OK true"},
		[2]string{"DEL q", "OK false"},
		[2]string{"CAS lock - holder", "OK true"},
		[2]string{"CAS lock - usurper", "OK false"},
		[2]string{"CAS lock wrong usurper", "OK false"},
		[2]string{"CAS lock holder next", "OK true"},
		[2]string{"PUT b 2", "OK"},
		[2]string{"MGET a b missing", "VALUE a=1 b=2"},
		[2]string{"MGET a", "VALUE a=1"},
		[2]string{"TXN PUT x 10 PUT y 20", "COMMITTED"},
		[2]string{"TXN GET x IF x 10 PUT x 11", "COMMITTED x=10"},
		[2]string{"TXN IF x 10 PUT x 99", "ABORTED"},
		[2]string{"TXN DEL y IF missing - GET x", "COMMITTED x=11"},
		[2]string{"GET y", "NOTFOUND"},
	)
	// An empty line gets no reply: the next reply belongs to the next command.
	if got := c.cmd("\nGET a"); got != "VALUE 1" {
		t.Fatalf("GET after an empty line = %q", got)
	}
	if got := c.cmd("SGET a 500ms"); !strings.HasPrefix(got, "VALUE 1 stale-for=") {
		t.Fatalf("SGET a = %q", got)
	}
	if got := c.cmd("SGET missing 500ms"); !strings.HasPrefix(got, "NOTFOUND stale-for=") {
		t.Fatalf("SGET missing = %q", got)
	}

	// A live split and the merge back, under a writer on a second connection:
	// the epoch advances once per handoff, no write fails, every key survives.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	w := d.dial(1)
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if got, err := w.try(fmt.Sprintf("PUT live-%d w", i%32)); err != nil || got != "OK" {
				t.Errorf("PUT during reshard = %q, %v", got, err)
				return
			}
		}
	}()
	c.want(
		[2]string{"RESHARD 8", "OK epoch=1 shards=8"},
		[2]string{"RESHARD 4", "OK epoch=2 shards=4"},
	)
	close(stop)
	<-writerDone
	c.want(
		[2]string{"MGET a b x lock", "VALUE a=1 b=2 x=11 lock=next"},
		[2]string{"GET live-0", "VALUE w"},
	)
	if got := c.cmd("STATS"); !strings.HasPrefix(got, "STATS shards=4 epoch=2 members=[2 2 2 2] ") {
		t.Fatalf("STATS = %q", got)
	}

	if body := strings.Join(c.multi("METRICS"), "\n"); !strings.Contains(body, "amoeba_core_sent_total{") {
		t.Fatalf("METRICS lacks the core counters:\n%s", body)
	}
	ids := c.multi("TRACES")
	if len(ids) == 0 {
		t.Fatal("TRACES lists nothing with every command id traced")
	}
	if body := c.multi("TRACE " + ids[0]); len(body) == 0 {
		t.Fatalf("TRACE %s is empty", ids[0])
	}
	if body := c.multi("FLIGHT"); len(body) == 0 {
		t.Fatal("FLIGHT is empty after a reshard")
	}
	health := c.multi("HEALTH")
	if top := c.multi("TOP"); len(top) < len(health) || len(health) == 0 {
		t.Fatalf("HEALTH = %q, TOP = %q: want a summary, and TOP to extend it", health, top)
	}

	c.want([2]string{"QUIT", "BYE"})
	if c.sc.Scan() {
		t.Fatalf("connection still open after QUIT: %q", c.sc.Text())
	}
}

// TestMalformedLines: bytes off the socket that do not parse answer ERR and
// leave the connection usable — never a panic, a hang, or a silent drop.
func TestMalformedLines(t *testing.T) {
	d := bootDaemon(t)
	c := d.dial(0)
	for _, line := range []string{
		`PUT k "unterminated`,
		`PUT k "bad \q escape"`,
		`CAS k "bad \q escape" v`,
		"PUT k",
		"PUT k v extra",
		"GET",
		"MGET",
		"DEL",
		"CAS k old",
		"LGET",
		"SGET k",
		"SGET k soon",
		"SGET k -5ms",
		"SGET k 0s",
		"TXN",
		"TXN PUT a 1 IF b",
		"TXN GET",
		"TXN PUT a",
		"TXN DEL",
		`TXN IF a "bad \q escape"`,
		"TXN FROB a",
		"RESHARD",
		"RESHARD 0",
		"RESHARD many",
		"TRACE",
		"TRACE xyz",
		"BOGUS",
		"\x00\xff",
	} {
		if got := c.cmd(line); !strings.HasPrefix(got, "ERR ") {
			t.Errorf("%q = %q, want ERR ...", line, got)
		}
	}
	c.want([2]string{"PUT k v", "OK"}, [2]string{"GET k", "VALUE v"})

	// An over-long line cannot be resynchronised: it answers ERR and hangs up.
	// (net.Pipe has no buffer, so the write needs its own goroutine.)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		_, _ = c.conn.Write([]byte("PUT k " + strings.Repeat("x", maxLine) + "\n")) // fails once the daemon hangs up
	}()
	if !c.sc.Scan() || !strings.HasPrefix(c.sc.Text(), "ERR ") {
		t.Fatalf("over-long line = %q (%v), want ERR ...", c.sc.Text(), c.sc.Err())
	}
	if c.sc.Scan() {
		t.Fatalf("connection still open after an over-long line: %q", c.sc.Text())
	}
	<-wrote
}

func TestTokenRoundTrip(t *testing.T) {
	for _, v := range []string{"", "plain", "two words", "tab\there", `quo"te`, `back\slash`, "new\nline", "\x00\xff"} {
		tok := token([]byte(v))
		fields, err := splitLine("PUT k " + tok)
		if err != nil || len(fields) != 3 {
			t.Fatalf("splitLine(%q) = %q, %v", tok, fields, err)
		}
		got, err := untoken(fields[2])
		if err != nil || string(got) != v {
			t.Fatalf("value %q -> token %s -> %q, %v", v, tok, got, err)
		}
	}
}
