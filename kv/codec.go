package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Wire format for shard commands. Every command travels through the shard
// group's total order and is applied by every replica, so the encoding must
// be deterministic and self-contained:
//
//	op(1) | session(8, big-endian) | seq uvarint | seq−ack uvarint | op-specific payload
//
// Byte strings are uvarint-length-prefixed. The header is the command's
// client session, its sequence number within it and the session's ack (see
// session.go): the shard deduplicates by (session, seq) and frees what the
// session keeps below ack. Folded (waitID), (session, seq) also correlates a
// command with the answer its apply hands its submitter.
//
// The migrate ops are the live-resharding handoff protocol: begin installs a
// pending routing table (freezing the ranges that move away), import streams
// a chunk of frozen pairs into their new owner, commit flips the epoch and
// deletes moved keys, abort rolls a pending handoff back. Because they are
// ordinary sequenced commands they are journaled by the write-ahead log like
// any write — a crash mid-handoff recovers the exact migration state.
//
// The txn ops are the sequenced-2PC participant protocol (see txn.go):
// prepare locks a transaction's local keys and captures its reads at one
// position in the shard's total order; resolve applies or discards the
// portion. Like the migrate ops they are ordinary sequenced commands, so an
// in-doubt transaction survives any crash the write-ahead log survives.
//
// opBatchPut is what a BatchPut sends a shard: one command carrying many
// pairs, each under its own seq of the header's session,
//
//	op | session | seq | seq−ack | count uvarint | key val | { delta varint key val }*
//
// so one ordered message, one delivery, one journal entry and one apply carry
// them all, while every pair is still deduplicated and answered by its own seq
// exactly as a lone opPut is. The header's seq is the first pair's, and each
// later pair carries its seq as a (zigzag) delta from the one before. A
// shard's pairs travel in as few commands as fit maxCommandBytes.
//
// Decoding. kv reads bytes one way: decodeCommand, DecodeRequest,
// DecodeResponse and decodeSnapshot all read through reader (at the end of
// this file), none of them trusting its input — a replica decodes whatever
// the order delivers, a client whatever answers, a joiner whatever transfer
// reply arrives. The reader checks every read against the bytes left, and its
// first failure sticks, so a decoder reads its fields straight through and
// looks for an error once. Counts are clamped in one place, reader.count: a
// claimed element count is believed only up to what the bytes left can hold
// at the element's minimum size, so no count makes a decoder allocate more
// than a small multiple of its input. Other numbers are bounded where they
// are read (reader.upTo): routing sizes, millisecond durations, audit ranges.
// What a decoder reads relates to its input by one rule per field, set by
// whether the field is kept — stored by the state machine, or otherwise
// outliving the message — or only looked up while the message is handled:
//
//   - A key that is only looked up is a substring of one string copy of the
//     message (reader.key): a Get's keys; a prepare's home key, key set and
//     read set; a resolve's home key and key set; and every key of an
//     access-protocol Request, which lives as long as the call it drives.
//     A message pays one copy however many keys it has. The exception is
//     the lone key of a ReqPut, ReqDelete or ReqCAS: it is copied alone
//     (reader.str), which is the same one copy without the values behind it.
//   - A key the state machine stores is a copy of its own (reader.str): an
//     opPut's, opDelete's and opCAS's key (their outcomes keep it), a batch's
//     and an import's pair keys, and a prepare's write and condition keys
//     (a commit stores the writes). One kept key never pins a command.
//   - A single write's values alias its command (reader.raw): a put, a CAS
//     or a prepare keeps its values in its own small command. A batch's and
//     an import's values are copied (reader.bytes), so one kept value does
//     not keep a whole chunk alive.
//     A Request's values alias the RPC payload it came in.
//   - A snapshot's or a transaction record's strings are each their own
//     copy: what they restore outlives the bytes it came from.
//
// No decoded string aliases the input bytes: a shared copy is immutable,
// owns its memory and lives as long as any key cut from it.
//
// Encoding. kv writes bytes one way too: an append function per field or
// message, and every encoder calls its append functions through spell, which
// spells the message in a pooled scratch buffer and returns one exactly sized
// copy of it. So a wire format is decided in two places, the append function
// and the reader, and no encoder works out its size. The one exception is
// Snapshot (snapshot.go), which estimates a whole shard's size up front.
const (
	opPut byte = iota + 1
	opDelete
	opCAS
	opGet
	opMigrateBegin
	opMigrateCommit
	opMigrateAbort
	opMigrateImport
	opTxnPrepare
	opTxnResolve
	// opAudit is the sequenced self-audit: every replica computes a
	// range-partitioned digest of its replicated state at the command's
	// position in the total order and reports it to the node's auditor (see
	// audit.go). Riding the order like any op is what makes the digests
	// comparable — all replicas evaluate the identical state.
	opAudit
	// New ops are appended: journals hold the op bytes, and one written
	// before an op existed must replay unchanged.
	opBatchPut
)

// maxCommandBytes bounds the payload one multi-element command (a batch put,
// a migrate-import chunk) is filled to, comfortably under the group layer's
// default 64 KiB message limit. A single element larger than this still
// travels, alone.
const maxCommandBytes = 32 << 10

var errBadCommand = errors.New("kv: malformed command")

// maxScratchBytes bounds a scratch buffer spell keeps for reuse: one that
// grew past it for an outsized message is dropped, so the pool never holds
// more than a few buffers of a chunk's size.
const maxScratchBytes = 2 * maxCommandBytes

// scratch holds the buffers spell spells messages in.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// spell returns the message f appends to an empty scratch buffer, copied
// into a slice of exactly its length: the message's only allocation. f must
// not keep the buffer it is handed.
func spell(f func([]byte) []byte) []byte {
	buf := scratch.Get().(*[]byte)
	b := f((*buf)[:0])
	msg := make([]byte, len(b))
	copy(msg, b)
	if cap(b) <= maxScratchBytes {
		*buf = b
		scratch.Put(buf)
	}
	return msg
}

// appendBytes appends a uvarint length prefix and the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendBool appends a flag byte: 1 for true, 0 for false.
func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// header is who sent a command: its client session, its sequence number in
// the session, and the session's ack — the lowest seq whose caller still
// waits.
type header struct {
	session, seq, ack uint64
}

// appendHeader spells a header. An ack above seq is sent as seq: it frees
// nothing a command at seq may still need.
func appendHeader(dst []byte, h header) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.session)
	dst = binary.AppendUvarint(dst, h.seq)
	return binary.AppendUvarint(dst, h.seq-min(h.ack, h.seq))
}

// header reads what appendHeader spelled.
func (r *reader) header() header {
	h := header{session: r.u64(), seq: r.uvarint()}
	if back := r.uvarint(); back <= h.seq {
		h.ack = h.seq - back
	} else {
		r.fail()
	}
	return h
}

// newCommand starts a command in dst, a scratch buffer spell hands an
// encoder: its op, then its header. The op-specific payload follows.
func newCommand(dst []byte, op byte, h header) []byte {
	return appendHeader(append(dst, op), h)
}

func encodePut(h header, key string, val []byte) []byte {
	return spell(func(dst []byte) []byte {
		return appendBytes(appendBytes(newCommand(dst, opPut, h), []byte(key)), val)
	})
}

// batchPairBytes bounds what one pair adds to an opBatchPut command.
func batchPairBytes(p Pair) int {
	return binary.MaxVarintLen64 + 2*binary.MaxVarintLen32 + len(p.Key) + len(p.Val)
}

// encodeBatchPut encodes pairs, pairs[i] under seqs[i] of h's session, as one
// command; h's own seq is ignored.
func encodeBatchPut(h header, seqs []uint64, pairs []Pair) []byte {
	h.seq = seqs[0]
	return spell(func(dst []byte) []byte { return appendSeqPairs(newCommand(dst, opBatchPut, h), seqs, pairs) })
}

// appendSeqPairs encodes a batch put's pairs, pairs[i] under seqs[i], as the
// shard command and the access protocol both carry them: the first pair's seq
// is the header's, and every later one is a delta from the one before.
func appendSeqPairs(dst []byte, seqs []uint64, pairs []Pair) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for i, p := range pairs {
		if i > 0 {
			dst = binary.AppendVarint(dst, int64(seqs[i]-seqs[i-1]))
		}
		dst = appendBytes(dst, []byte(p.Key))
		dst = appendBytes(dst, p.Val)
	}
	return dst
}

// seqPairs reads what appendSeqPairs spelled, the first pair under seq. When
// keep is set a state machine keeps the pairs, so each key and value is
// copied out alone: one kept pair must not keep a whole command alive.
// Otherwise the keys share the message's copy and the values alias it.
func (r *reader) seqPairs(seq uint64, keep bool) ([]uint64, []Pair) {
	n := r.count(2) // two length bytes
	seqs, pairs := make([]uint64, n), make([]Pair, n)
	for i := range pairs {
		if i > 0 {
			seq += uint64(r.varint())
		}
		seqs[i] = seq
		if keep {
			pairs[i].Key, pairs[i].Val = r.str(), r.bytes()
		} else {
			pairs[i].Key, pairs[i].Val = r.key(), r.raw()
		}
	}
	if n == 0 {
		r.fail()
	}
	return seqs, pairs
}

func encodeDelete(h header, key string) []byte {
	return spell(func(dst []byte) []byte { return appendBytes(newCommand(dst, opDelete, h), []byte(key)) })
}

// encodeAudit encodes a sequenced audit over ranges digest partitions.
func encodeAudit(h header, ranges int) []byte {
	return spell(func(dst []byte) []byte { return binary.AppendUvarint(newCommand(dst, opAudit, h), uint64(ranges)) })
}

// encodeCAS encodes a compare-and-swap. expectPresent=false means the swap
// succeeds only if the key is absent (atomic create).
func encodeCAS(h header, key string, expectPresent bool, expect, val []byte) []byte {
	return spell(func(dst []byte) []byte {
		dst = appendBytes(newCommand(dst, opCAS, h), []byte(key))
		dst = appendBool(dst, expectPresent)
		dst = appendBytes(dst, expect)
		return appendBytes(dst, val)
	})
}

// encodeGet encodes a sequenced read of one or more keys on one shard. The
// read travels the total order like a write, so the values it captures are
// linearizable.
func encodeGet(h header, keys []string) []byte {
	return spell(func(dst []byte) []byte { return appendKeys(newCommand(dst, opGet, h), keys) })
}

// appendRouting encodes a routing table as three uvarints.
func appendRouting(dst []byte, rt Routing) []byte {
	dst = binary.AppendUvarint(dst, rt.Epoch)
	dst = binary.AppendUvarint(dst, uint64(rt.Shards))
	return binary.AppendUvarint(dst, uint64(rt.VNodes))
}

// encodeMigrate encodes a begin, commit, or abort carrying the target table.
func encodeMigrate(op byte, h header, rt Routing) []byte {
	return spell(func(dst []byte) []byte { return appendRouting(newCommand(dst, op, h), rt) })
}

// encodeMigrateImport encodes one chunk of pairs (and the sessions and
// transaction portions that move with them) streamed into their new owner,
// tagged with the target epoch that gates its application:
//
//	routing | pairs | clock uvarint | sessions | portions
//
// with the sessions spelled as a snapshot spells them, each outcome's seq as
// its distance above the session's ack.
func encodeMigrateImport(h header, rt Routing, chunk *importChunk) []byte {
	return spell(func(dst []byte) []byte {
		dst = appendRouting(newCommand(dst, opMigrateImport, h), rt)
		dst = binary.AppendUvarint(dst, uint64(len(chunk.Pairs)))
		for _, p := range chunk.Pairs {
			dst = appendBytes(dst, []byte(p.Key))
			dst = appendBytes(dst, p.Val)
		}
		dst = binary.AppendUvarint(dst, chunk.Clock)
		dst = binary.AppendUvarint(dst, uint64(len(chunk.Moved)))
		for _, m := range chunk.Moved {
			dst = binary.BigEndian.AppendUint64(dst, m.ID)
			dst = binary.AppendUvarint(dst, m.Ack)
			dst = appendOutcomes(dst, m.Ack, m.Outcomes)
		}
		// Transaction portions are spelled as a snapshot spells them.
		dst = binary.AppendUvarint(dst, uint64(len(chunk.Txns)))
		for _, p := range chunk.Txns {
			dst = appendPortion(dst, p)
		}
		return dst
	})
}

// appendTxnWrites / appendTxnConds encode a prepare's write and condition
// sets, shared between the shard command and the access protocol.
func appendTxnWrites(dst []byte, writes []TxnWrite) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(writes)))
	for _, w := range writes {
		dst = appendBytes(dst, []byte(w.Key))
		dst = appendBool(dst, w.Delete)
		dst = appendBytes(dst, w.Val)
	}
	return dst
}

func appendTxnConds(dst []byte, conds []TxnCond) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(conds)))
	for _, c := range conds {
		dst = appendBytes(dst, []byte(c.Key))
		dst = appendBool(dst, c.ExpectPresent)
		dst = appendBytes(dst, c.Expect)
	}
	return dst
}

// appendKeys encodes a key list.
func appendKeys(dst []byte, keys []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendBytes(dst, []byte(k))
	}
	return dst
}

// encodeTxnPrepare encodes a transaction prepare: lock the local keys, check
// the conditions, capture the reads — all at one position in the shard's
// total order. The header is the transaction's own (session, seq) and the
// payload names the attempt: every prepare and resolve of one attempt,
// however it is split or re-driven, converges on one portion.
func encodeTxnPrepare(h header, attempt uint32, homeKey string, allKeys, reads []string, writes []TxnWrite, conds []TxnCond) []byte {
	return spell(func(dst []byte) []byte {
		dst = binary.AppendUvarint(newCommand(dst, opTxnPrepare, h), uint64(attempt))
		dst = appendBytes(dst, []byte(homeKey))
		dst = appendKeys(dst, allKeys)
		dst = appendKeys(dst, reads)
		dst = appendTxnWrites(dst, writes)
		return appendTxnConds(dst, conds)
	})
}

// encodeTxnResolve encodes a transaction resolve (commit or abort). It
// carries the full key set so a shard that never saw the prepare can fence
// the decision for the keys it serves.
func encodeTxnResolve(h header, attempt uint32, commit bool, homeKey string, allKeys []string) []byte {
	return spell(func(dst []byte) []byte {
		dst = binary.AppendUvarint(newCommand(dst, opTxnResolve, h), uint64(attempt))
		dst = appendBool(dst, commit)
		dst = appendBytes(dst, []byte(homeKey))
		return appendKeys(dst, allKeys)
	})
}

// --- Access protocol (client ↔ service) --------------------------------------
//
// The shard-command codec above is what travels a shard group's total order;
// the access protocol below is what travels between a client and a node's
// Service over Amoeba RPC — and, re-rendered as text, over amoeba-kv's TCP
// line protocol — so the in-process client, the RPC proxy, and the external
// daemon speak one protocol. Requests are self-describing and versioned:
//
//	ver(1) | op(1) | flags(1) | budget-ms uvarint | epoch uvarint | session(8) | seq uvarint | seq−ack uvarint | op payload
//
// and responses:
//
//	ver(1) | status(1) | status payload
//
// The (session, seq, ack) header is chosen by the originating client and
// carried end to end into the shard commands (a batch carries one seq per
// pair, spelled as the shard command spells them): replicas deduplicate
// applies by (session, seq), which is what keeps retries exactly-once across
// RPC retransmissions, ForwardRequest hops, shard failovers, and
// routing-epoch flips. The epoch
// is the routing table the client targeted the request with; a service at a
// different epoch still serves the request (under its own, newer-or-older
// table, forwarding misroutes), and attaches its table to the response so
// the client converges. A node receiving a request whose version it does not
// speak answers with an error response naming its own version instead of
// guessing.

// ProtoVersion is the access-protocol version this build speaks. Version 2
// added the routing epoch to requests and the routing table to responses;
// version 3 added the transaction ops and the txn outcome byte on responses;
// version 4 added the read-path flags (lease and bounded-staleness reads), a
// max-staleness bound on ReqGet, and the read-path and topology fields on
// responses (which path served the read, how stale it may be, and the node
// count and replication factor a fleet-shaped client steers reads with);
// version 5 replaced the command id with the client session header and the
// transaction id with the attempt number.
const ProtoVersion = 5

// Request ops.
const (
	// ReqGet is a sequenced (linearizable) read of Keys. Multi-key
	// requests may span shards; the serving node scatter-gathers.
	ReqGet byte = iota + 1
	// ReqPut stores Key = Val.
	ReqPut
	// ReqDelete removes Key, reporting whether it existed.
	ReqDelete
	// ReqCAS swaps Key to Val if its value equals Expect (ExpectPresent
	// false: only if absent).
	ReqCAS
	// ReqBatchPut writes Pairs, each deduplicated by its own seq in IDs.
	ReqBatchPut
	// ReqTxnPrepare locks one shard's portion of a transaction attempt
	// (Session, ID, Attempt; HomeKey, AllKeys; local reads in Keys, plus
	// Writes and Conds) and captures its reads. Issued by the 2PC coordinator
	// in Client.Txn.
	ReqTxnPrepare
	// ReqTxnResolve commits (Commit true) or aborts one shard's portion of
	// the attempt. Key names a representative key the portion serves, so
	// routing follows the portion across reshardings.
	ReqTxnResolve
	// ReqTxn is a whole transaction (reads in Keys, plus Writes and Conds):
	// the form ring-less clients and the daemon's TXN verb send. A node (or
	// ring-aware client) receiving it runs the 2PC coordinator itself.
	ReqTxn
)

// Request flags.
const (
	// flagForwarded marks a request that already took a ForwardRequest
	// hop. A service must answer it — serve or fail — never forward
	// again: the loop bound should two nodes' rings ever disagree.
	flagForwarded byte = 1 << 0
	// flagLeaseRead invites the serving node to answer a ReqGet from local
	// state under its read lease instead of sequencing the read. The server
	// falls back to the sequenced path when it holds no valid lease (or any
	// key is frozen or locked), so the flag never weakens the result: either
	// way the read is linearizable.
	flagLeaseRead byte = 1 << 1
	// flagStaleRead permits a ReqGet to be served from any replica's local
	// state provided its staleness bound is within the request's MaxStale —
	// the follower-read path. Without a bound in budget the server falls
	// back to the sequenced path.
	flagStaleRead byte = 1 << 2
)

// Read paths a ReqGet response reports (Response.ReadPath).
const (
	// ReadSequenced: the read travelled the shard's total order.
	ReadSequenced byte = iota
	// ReadLease: served from local state under a valid read lease
	// (linearizable without sequencing).
	ReadLease
	// ReadStale: served from local state at a bounded staleness
	// (Response.StaleFor).
	ReadStale
)

var (
	errBadRequest = errors.New("kv: malformed request")
	// errVersion reports a request or response from a different protocol
	// version.
	errVersion = fmt.Errorf("kv: unsupported protocol version (this build speaks v%d)", ProtoVersion)
)

// Request is one decoded access-protocol operation.
type Request struct {
	Op    byte
	Flags byte
	// Session, ID and Ack are the request's exactly-once header: the client
	// session, the request's sequence number in it, and the session's ack —
	// its lowest seq whose caller still waits. A zero Session asks the
	// client to number the request in its own session (ID and Ack are then
	// assigned too); a caller that sets Session pins the request, which a
	// retry under the same (Session, ID) is then deduplicated against.
	Session uint64
	ID      uint64
	Ack     uint64
	// Budget is the caller's remaining time budget, carried across the
	// RPC hop so the serving node's context expires with the caller's.
	// Zero means "server default".
	Budget time.Duration
	// Epoch is the routing-table epoch the client targeted this request
	// with (0: no routing knowledge). A service whose table differs
	// answers with its own table attached, so stale clients converge.
	Epoch uint64
	// MaxStale bounds how stale a flagStaleRead ReqGet may be served
	// (zero: no stale serving). Ignored without the flag.
	MaxStale time.Duration

	Keys          []string // ReqGet; txn ops: the read set (local subset for ReqTxnPrepare)
	Key           string   // ReqPut, ReqDelete, ReqCAS; ReqTxnResolve: representative routing key
	Val           []byte   // ReqPut, ReqCAS
	ExpectPresent bool     // ReqCAS
	Expect        []byte   // ReqCAS
	Pairs         []Pair   // ReqBatchPut
	// IDs carries one seq of Session per Pairs element, preserved verbatim
	// across splits and forwards so every node deduplicates identically.
	IDs []uint64 // ReqBatchPut

	// Transaction fields (ReqTxn, ReqTxnPrepare, ReqTxnResolve). A
	// transaction is (Session, ID) — its ReqTxn's — across every participant
	// shard, and Attempt numbers its tries; HomeKey names the home portion
	// whose shard order arbitrates the outcome; AllKeys is the full (sorted)
	// key set, carried so any shard can fence the decision for keys it
	// serves.
	Attempt uint32
	HomeKey string
	AllKeys []string
	Writes  []TxnWrite // ReqTxn, ReqTxnPrepare (local subset)
	Conds   []TxnCond  // ReqTxn, ReqTxnPrepare (local subset)
	Commit  bool       // ReqTxnResolve: the decision being applied
}

// EncodeRequest renders a request for the wire.
func EncodeRequest(r *Request) []byte {
	return spell(func(dst []byte) []byte { return appendRequest(dst, r) })
}

// wireHeader is the session header r travels under.
func (r *Request) wireHeader() header {
	h := header{session: r.Session, seq: r.ID, ack: r.Ack}
	if r.Op == ReqBatchPut && len(r.IDs) > 0 {
		h.seq = r.IDs[0] // a batch is its pairs' seqs
	}
	return h
}

// appendRequest appends r as EncodeRequest spells it.
func appendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, ProtoVersion, r.Op, r.Flags)
	dst = binary.AppendUvarint(dst, uint64(r.Budget/time.Millisecond))
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = appendHeader(dst, r.wireHeader())
	switch r.Op {
	case ReqGet:
		// v4: the staleness bound precedes the keys (always present).
		dst = binary.AppendUvarint(dst, uint64(r.MaxStale/time.Millisecond))
		dst = appendKeys(dst, r.Keys)
	case ReqPut:
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBytes(dst, r.Val)
	case ReqDelete:
		dst = appendBytes(dst, []byte(r.Key))
	case ReqCAS:
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBool(dst, r.ExpectPresent)
		dst = appendBytes(dst, r.Expect)
		dst = appendBytes(dst, r.Val)
	case ReqBatchPut:
		dst = appendSeqPairs(dst, r.IDs, r.Pairs)
	case ReqTxnPrepare:
		dst = binary.AppendUvarint(dst, uint64(r.Attempt))
		dst = appendBytes(dst, []byte(r.HomeKey))
		dst = appendKeys(dst, r.AllKeys)
		dst = appendKeys(dst, r.Keys)
		dst = appendTxnWrites(dst, r.Writes)
		dst = appendTxnConds(dst, r.Conds)
	case ReqTxnResolve:
		dst = binary.AppendUvarint(dst, uint64(r.Attempt))
		dst = appendBool(dst, r.Commit)
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBytes(dst, []byte(r.HomeKey))
		dst = appendKeys(dst, r.AllKeys)
	case ReqTxn:
		dst = appendKeys(dst, r.Keys)
		dst = appendTxnWrites(dst, r.Writes)
		dst = appendTxnConds(dst, r.Conds)
	}
	return dst
}

// DecodeRequest parses a wire request, rejecting unknown versions and ops.
func DecodeRequest(b []byte) (*Request, error) {
	if len(b) < 3 {
		return nil, errBadRequest
	}
	if b[0] != ProtoVersion {
		return nil, errVersion
	}
	r := &Request{Op: b[1], Flags: b[2]}
	in := messageReader(b[3:])
	r.Budget, r.Epoch = in.millis(), in.uvarint()
	h := in.header()
	r.Session, r.ID, r.Ack = h.session, h.seq, h.ack
	if in.failed {
		return nil, errBadRequest // a malformed header, reported before an unknown op
	}
	switch r.Op {
	case ReqGet:
		if r.MaxStale, r.Keys = in.millis(), in.keys(); len(r.Keys) == 0 {
			in.fail()
		}
	case ReqPut:
		r.Key, r.Val = in.str(), in.raw()
	case ReqDelete:
		r.Key = in.str()
	case ReqCAS:
		r.Key, r.ExpectPresent, r.Expect, r.Val = in.str(), in.flag(), in.raw(), in.raw()
	case ReqBatchPut:
		r.IDs, r.Pairs = in.seqPairs(r.ID, false)
	case ReqTxnPrepare:
		r.Attempt, r.HomeKey, r.AllKeys, r.Keys = in.attempt(), in.key(), in.keys(), in.keys()
		r.Writes, r.Conds = in.writes(true), in.conds(true)
	case ReqTxnResolve:
		r.Attempt, r.Commit, r.Key, r.HomeKey, r.AllKeys = in.attempt(), in.flag(), in.key(), in.key(), in.keys()
	case ReqTxn:
		r.Keys, r.Writes, r.Conds = in.keys(), in.writes(true), in.conds(true)
	default:
		return nil, fmt.Errorf("kv: unknown request op %d: %w", r.Op, errBadRequest)
	}
	if in.failed {
		return nil, errBadRequest
	}
	return r, nil
}

// Response statuses.
const (
	statusOK  byte = 1
	statusErr byte = 2
)

// Response is the decoded outcome of one Request, identical whether the
// request executed in process, across the RPC proxy, or behind a forward.
type Response struct {
	// OK reports mutation success: CAS swapped, Delete found the key.
	// Always true for Put, BatchPut, and Get responses.
	OK bool
	// Values and Found answer ReqGet, aligned with the request's Keys.
	Values [][]byte
	Found  []bool
	// Routing, when non-nil, is the serving node's routing table: attached
	// whenever the request's epoch differed from the server's, so a stale
	// client adopts the new table from any response — no config service.
	Routing *Routing
	// TxnState answers the txn ops: the portion's state after this request
	// applied (txnStatePrepared/Committed/Aborted), zero for non-txn ops.
	TxnState byte
	// Conflict reports a prepare that lost to a different live transaction
	// holding one of its keys; the coordinator retries with a fresh txn id.
	Conflict bool
	// CondFailed reports a prepare whose conditions did not hold; the
	// transaction aborts without retry, like a failed CAS.
	CondFailed bool
	// ReadPath reports which path served a ReqGet (ReadSequenced,
	// ReadLease, ReadStale); zero for non-read ops.
	ReadPath byte
	// StaleFor is the staleness bound of a ReadStale answer (how far
	// behind the total order the serving state may have been); zero
	// otherwise.
	StaleFor time.Duration
	// Nodes and Replication describe the serving store's topology (node
	// count and replicas per shard). A fleet-shaped client combines them
	// with the routing table to steer reads at the replicas hosting each
	// shard. Zero: not reported.
	Nodes       int
	Replication int
	// Err is a non-empty error description; all other fields are zero.
	Err string
}

// EncodeResponse renders a response for the wire.
func EncodeResponse(r *Response) []byte {
	return spell(func(dst []byte) []byte { return appendResponse(dst, r) })
}

// appendResponse appends r as EncodeResponse spells it.
func appendResponse(dst []byte, r *Response) []byte {
	if r.Err != "" {
		return appendBytes(append(dst, ProtoVersion, statusErr), []byte(r.Err))
	}
	dst = append(dst, ProtoVersion, statusOK)
	dst = appendBool(dst, r.OK)
	// Txn outcome byte (v3): bits 0–1 TxnState, bit 2 Conflict, bit 3
	// CondFailed. Always present; zero for non-txn responses.
	txn := r.TxnState & 3
	if r.Conflict {
		txn |= 1 << 2
	}
	if r.CondFailed {
		txn |= 1 << 3
	}
	dst = append(dst, txn)
	// Read-path and topology fields (v4). Always present; zero when the
	// response is not a read or the server does not report topology.
	dst = append(dst, r.ReadPath)
	dst = binary.AppendUvarint(dst, uint64(r.StaleFor/time.Millisecond))
	dst = binary.AppendUvarint(dst, uint64(r.Nodes))
	dst = binary.AppendUvarint(dst, uint64(r.Replication))
	dst = appendOptRouting(dst, r.Routing)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for i, v := range r.Values {
		dst = appendBool(dst, i < len(r.Found) && r.Found[i])
		dst = appendBytes(dst, v)
	}
	return dst
}

// DecodeResponse parses a wire response.
func DecodeResponse(b []byte) (*Response, error) {
	if len(b) < 2 {
		return nil, errBadRequest
	}
	if b[0] != ProtoVersion {
		return nil, errVersion
	}
	r := &Response{}
	in := reader{b: b[2:]}
	switch b[1] {
	case statusErr:
		if r.Err = in.str(); r.Err == "" {
			r.Err = "kv: unspecified remote error"
		}
	case statusOK:
		r.OK = in.flag()
		txn := in.u8()
		r.TxnState, r.Conflict, r.CondFailed = txn&3, txn&(1<<2) != 0, txn&(1<<3) != 0
		r.ReadPath, r.StaleFor = in.u8(), in.millis()
		r.Nodes, r.Replication = int(in.upTo(1<<20)), int(in.upTo(1<<20))
		if in.flag() {
			rt := in.routing()
			r.Routing = &rt
		}
		n := in.count(2) // a found flag and a length byte
		r.Values, r.Found = make([][]byte, n), make([]bool, n)
		for i := range r.Values {
			if r.Found[i], r.Values[i] = in.flag(), in.bytes(); !r.Found[i] {
				r.Values[i] = nil
			}
		}
	default:
		return nil, errBadRequest
	}
	if in.failed {
		return nil, errBadRequest
	}
	return r, nil
}

// command is the decoded form of a wire command.
type command struct {
	op byte
	header
	key           string
	val           []byte
	expectPresent bool
	expect        []byte
	keys          []string       // opGet; opTxnPrepare: the read set
	routing       Routing        // migrate ops: the target table
	pairs         []Pair         // opMigrateImport, opBatchPut
	seqs          []uint64       // opBatchPut: one seq per pair
	clock         uint64         // opMigrateImport: the source's session clock
	moved         []movedSession // opMigrateImport: the sessions that travel
	txns          []*txnPortion  // opMigrateImport: migrated txn portions
	attempt       uint32         // txn ops
	txnCommit     bool           // opTxnResolve: the decision
	homeKey       string         // txn ops
	allKeys       []string       // txn ops
	writes        []TxnWrite     // opTxnPrepare
	conds         []TxnCond      // opTxnPrepare
	ranges        int            // opAudit: digest partition count
}

// waitID is the id the command's local waiter registers under.
func (c *command) waitID() uint64 { return waitID(c.op, c.session, c.seq, c.attempt) }

// txnID is the transaction attempt a txn op names.
func (c *command) txnID() txnID { return txnID{session: c.session, seq: c.seq, attempt: c.attempt} }

func decodeCommand(b []byte) (command, error) {
	if len(b) < 1 {
		return command{}, errBadCommand
	}
	r := messageReader(b[1:])
	c := command{op: b[0], header: r.header()}
	switch c.op {
	case opPut:
		c.key, c.val = r.str(), r.raw()
	case opDelete:
		c.key = r.str()
	case opCAS:
		c.key, c.expectPresent, c.expect, c.val = r.str(), r.flag(), r.raw(), r.raw()
	case opGet:
		c.keys = r.keys()
	case opMigrateBegin, opMigrateCommit, opMigrateAbort:
		c.routing = r.routing()
	case opMigrateImport:
		c.routing = r.routing()
		c.pairs = make([]Pair, r.count(2)) // two length bytes
		for i := range c.pairs {
			c.pairs[i] = Pair{Key: r.str(), Val: r.bytes()}
		}
		c.clock = r.uvarint()
		c.moved = make([]movedSession, r.count(10)) // an id, an ack and a count
		for i := range c.moved {
			m := &c.moved[i]
			m.ID, m.Ack = r.u64(), r.uvarint()
			m.Outcomes = r.outcomes(m.ID, m.Ack)
		}
		c.txns = make([]*txnPortion, r.count(minPortionBytes))
		for i := range c.txns {
			c.txns[i] = r.portion()
		}
	case opTxnPrepare:
		c.attempt, c.homeKey, c.allKeys, c.keys = r.attempt(), r.key(), r.keys(), r.keys()
		c.writes, c.conds = r.writes(false), r.conds(false)
	case opTxnResolve:
		c.attempt, c.txnCommit, c.homeKey, c.allKeys = r.attempt(), r.flag(), r.key(), r.keys()
	case opAudit:
		if c.ranges = int(r.upTo(maxAuditRanges)); c.ranges == 0 {
			r.fail()
		}
	case opBatchPut:
		// The values are copied out, as an import's are. A batch is spelled
		// one way: at least one pair, nothing after the last.
		if c.seqs, c.pairs = r.seqPairs(c.seq, true); len(r.b) != 0 {
			r.fail()
		}
	default:
		return command{}, fmt.Errorf("kv: unknown op %d: %w", c.op, errBadCommand)
	}
	if r.failed {
		return command{}, errBadCommand
	}
	return c, nil
}

// reader is kv's one byte reader: the shard commands, the access protocol and
// the snapshot are all decoded through it. It reads front to back and checks
// every read against the bytes left. Its first failure sticks — every later
// read returns a zero value — so a decoder reads its fields straight through
// and looks at failed once, at the end, to return its own malformed-input
// error.
type reader struct {
	b      []byte
	failed bool
	// msg is the whole message (b is always a tail of it), and shared a
	// copy of msg from the first key read by key on, made by that read;
	// from is where in msg the copy starts. Only a messageReader has msg.
	msg    []byte
	shared string
	from   int
}

// messageReader reads msg, whose keys key may share one copy of.
func messageReader(msg []byte) reader { return reader{b: msg, msg: msg} }

func (r *reader) fail() {
	r.b, r.failed = nil, true
}

func (r *reader) u8() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) flag() bool { return r.u8() != 0 }

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) uvarint() uint64 { return r.upTo(math.MaxUint64) }

// varint reads a zigzag varint.
func (r *reader) varint() int64 {
	v, w := binary.Varint(r.b)
	if w <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

// attempt reads a transaction attempt's number.
func (r *reader) attempt() uint32 { return uint32(r.upTo(math.MaxUint32)) }

// upTo reads a uvarint and refuses one above max.
func (r *reader) upTo(max uint64) uint64 {
	v, w := binary.Uvarint(r.b)
	if w <= 0 || v > max {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

// millis reads a duration in whole milliseconds, refusing one a
// time.Duration cannot hold.
func (r *reader) millis() time.Duration {
	return time.Duration(r.upTo(uint64(math.MaxInt64/time.Millisecond))) * time.Millisecond
}

// count reads an element count and believes it only up to what the bytes left
// could hold at minSize bytes an element. It is the one place a claimed count
// meets the input's length, which is what bounds what a hostile count can make
// a decoder allocate.
func (r *reader) count(minSize int) int {
	n, w := binary.Uvarint(r.b)
	if w <= 0 || n > uint64((len(r.b)-w)/minSize) {
		r.fail()
		return 0
	}
	r.b = r.b[w:]
	return int(n)
}

// raw reads a byte string in place: the result aliases the input, its
// capacity cut to its length so an append cannot write past it.
func (r *reader) raw() []byte {
	n, w := binary.Uvarint(r.b)
	if w <= 0 || n > uint64(len(r.b)-w) {
		r.fail()
		return nil
	}
	end := w + int(n)
	b := r.b[w:end:end]
	r.b = r.b[end:]
	return b
}

// bytes reads a byte string into a copy of its own (nil when empty), for what
// outlives the input.
func (r *reader) bytes() []byte { return copyVal(r.raw()) }

// str reads a string into a copy of its own, for what outlives the message.
func (r *reader) str() string { return string(r.raw()) }

// key reads a string that is only looked up while the message is handled: a
// substring of one copy of the message, from the first key read this way to
// its end, which that read makes. The copy is immutable and owns its memory,
// so the key stays what it was whatever becomes of the input; and it lives
// as long as any key cut from it does.
func (r *reader) key() string {
	b := r.raw()
	if len(b) == 0 {
		return ""
	}
	end := len(r.msg) - len(r.b)
	start := end - len(b)
	if r.shared == "" {
		r.shared, r.from = string(r.msg[start:]), start
	}
	return r.shared[start-r.from : end-r.from]
}

// name reads a key with str when share is unset, with key when it is set.
func (r *reader) name(share bool) string {
	if share {
		return r.key()
	}
	return r.str()
}

// keys reads a key list, each key read by key.
func (r *reader) keys() []string { return r.names(true) }

// names reads a key list, each key read by name.
func (r *reader) names(share bool) []string {
	out := make([]string, r.count(1)) // a length byte
	for i := range out {
		out[i] = r.name(share)
	}
	return out
}

// writes and conds read a prepare's write and condition sets, each key read
// by name; their values alias the input.
func (r *reader) writes(share bool) []TxnWrite {
	out := make([]TxnWrite, r.count(3)) // a length byte, a flag, a length byte
	for i := range out {
		out[i].Key, out[i].Delete, out[i].Val = r.name(share), r.flag(), r.raw()
	}
	return out
}

func (r *reader) conds(share bool) []TxnCond {
	out := make([]TxnCond, r.count(3)) // a length byte, a flag, a length byte
	for i := range out {
		out[i].Key, out[i].ExpectPresent, out[i].Expect = r.name(share), r.flag(), r.raw()
	}
	return out
}

func (r *reader) values() [][]byte {
	out := make([][]byte, r.count(1))
	for i := range out {
		out[i] = r.bytes()
	}
	return out
}

func (r *reader) found() []bool {
	out := make([]bool, r.count(1))
	for i := range out {
		out[i] = r.flag()
	}
	return out
}

// routing reads a routing table, refusing sizes no store has.
func (r *reader) routing() Routing {
	rt := Routing{Epoch: r.uvarint(), Shards: int(r.upTo(1 << 20)), VNodes: int(r.upTo(1 << 20))}
	if rt.Shards == 0 {
		r.fail()
	}
	return rt
}
