package amoeba

import (
	"context"
	"fmt"

	"amoeba/internal/flip"
	"amoeba/internal/rpc"
)

// Addr names an RPC endpoint on the network. Addresses identify processes,
// not machines (the FLIP property the paper highlights against IP), so a
// server keeps its address if it moves kernels.
type Addr uint64

// AddrForName derives a stable well-known address from a service name.
func AddrForName(name string) Addr { return Addr(flip.AddressForName(name)) }

// RPCHandler serves one request. It must give the same effect when it runs
// again for the same request: the server keeps no replies, so a
// retransmission that arrives after the reply was sent (the reply was lost,
// or the network duplicated the request) runs the handler again. A read
// meets this as it is; a write meets it by deduplicating where its data
// lives, the way a kv shard answers a client session's repeated seq with its
// first outcome. Returning a non-zero forward address
// instead of a reply hands the request to that server — the paper's
// ForwardRequest primitive; the reply reaches the client from wherever the
// request lands. When forwarding, a non-nil reply replaces the request
// payload (the handler may rewrite the request before handing it on, e.g. to
// mark it as already forwarded — see the kv shard proxy); a nil reply
// forwards the original bytes unchanged.
type RPCHandler func(req []byte) (reply []byte, forward Addr)

// RPCServer answers point-to-point RPCs, Amoeba's other communication
// primitive and the performance yardstick the paper measures group sends
// against.
type RPCServer struct {
	srv *rpc.Server
}

// RPCServerOptions tunes an RPCServer.
type RPCServerOptions struct {
	// Concurrent runs request handlers on worker goroutines, so handlers
	// may block — perform group sends, issue RPCs of their own — without
	// stalling the kernel's packet delivery (which would deadlock a handler
	// that needs inbound packets to make progress). The server starts a
	// worker when a request finds none idle and keeps it for later
	// requests, up to 64; a request that finds all 64 busy is shed and
	// served by the client's next retransmission. Duplicate requests
	// arriving while a handler runs are suppressed; once it completes, a
	// retransmission runs the handler again (see RPCHandler).
	Concurrent bool
}

// NewRPCServer starts serving at addr (use AddrForName for well-known
// services, or 0 to allocate a fresh address). Handlers run on the kernel's
// delivery goroutine and must not block; for blocking handlers see
// NewRPCServerWith. The server keeps no replies: h must give the same effect
// when it runs again for a retransmitted request (RPCHandler).
func (k *Kernel) NewRPCServer(addr Addr, h RPCHandler) (*RPCServer, error) {
	return k.NewRPCServerWith(addr, h, RPCServerOptions{})
}

// NewRPCServerWith starts serving at addr with explicit options.
func (k *Kernel) NewRPCServerWith(addr Addr, h RPCHandler, opts RPCServerOptions) (*RPCServer, error) {
	srv, err := rpc.NewServer(rpc.Config{Stack: k.stack, Clock: k.clock, Concurrent: opts.Concurrent, Idempotent: true},
		flip.Address(addr),
		func(req []byte) ([]byte, flip.Address) {
			reply, fwd := h(req)
			return reply, flip.Address(fwd)
		})
	if err != nil {
		return nil, fmt.Errorf("amoeba: starting RPC server: %w", err)
	}
	return &RPCServer{srv: srv}, nil
}

// Addr returns the server's address.
func (s *RPCServer) Addr() Addr { return Addr(s.srv.Addr()) }

// Close stops serving.
func (s *RPCServer) Close() { s.srv.Close() }

// RPCClient issues blocking remote procedure calls.
type RPCClient struct {
	cl *rpc.Client
}

// NewRPCClient creates a client on this kernel.
func (k *Kernel) NewRPCClient() (*RPCClient, error) {
	cl, err := rpc.NewClient(rpc.Config{Stack: k.stack, Clock: k.clock})
	if err != nil {
		return nil, fmt.Errorf("amoeba: creating RPC client: %w", err)
	}
	return &RPCClient{cl: cl}, nil
}

// Call performs a blocking RPC: request out, reply back, with
// retransmission on loss. A retransmission may run the server's handler
// again (RPCHandler): what runs exactly once is up to the handler. The
// context bounds the call end to end: when ctx expires mid-retransmit the
// pending transaction is withdrawn — no goroutine or retransmission traffic
// lingers — and ctx's error is returned.
func (c *RPCClient) Call(ctx context.Context, server Addr, req []byte) ([]byte, error) {
	return c.cl.CallContext(ctx, flip.Address(server), req)
}

// RPCHeaderSize is the room CallPacket takes at the front of a request.
const RPCHeaderSize = rpc.HeaderSize

// CallPacket is Call for a request spelled behind RPCHeaderSize bytes of room
// at the front of pkt, where the RPC layer writes its header instead of
// copying the request into a packet of its own. pkt is the client's from the
// call on: a retransmission may still be reading it as the call returns.
func (c *RPCClient) CallPacket(ctx context.Context, server Addr, pkt []byte) ([]byte, error) {
	return c.cl.CallPacket(ctx, flip.Address(server), pkt)
}

// Close releases the client; in-flight calls fail.
func (c *RPCClient) Close() { c.cl.Close() }

// ErrRPCTimeout reports an RPC whose retransmissions all went unanswered:
// the server is unreachable, crashed, or (for a well-known address) not yet
// registered anywhere.
var ErrRPCTimeout = rpc.ErrTimeout
