package kv

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
)

// Wire format for shard commands. Every command travels through the shard
// group's total order and is applied by every replica, so the encoding must
// be deterministic and self-contained:
//
//	op(1) | id(8, big-endian) | op-specific payload
//
// Byte strings are uvarint-length-prefixed. The id correlates a command with
// the answer its apply hands its submitter, and with the result an executed
// command leaves in the state machine's result window for its retries; ids
// are unique per client operation (random client nonce + counter).
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
// pairs, each under its own id,
//
//	op | id | count uvarint | { id(8) key val }*
//
// so one ordered message, one delivery, one journal entry and one apply carry
// them all, while every pair is still deduplicated and answered by its own id
// exactly as a lone opPut is. A batch has no result of its own: the header id
// repeats the first pair's. A shard's pairs travel in as few commands as fit
// maxCommandBytes.
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

// appendBytes appends a uvarint length prefix and the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// takeBytes consumes one length-prefixed byte string.
func takeBytes(src []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || uint64(len(src)-w) < n {
		return nil, nil, errBadCommand
	}
	return src[w : w+int(n) : w+int(n)], src[w+int(n):], nil
}

func commandHeader(op byte, id uint64) []byte {
	dst := make([]byte, 9, 32)
	dst[0] = op
	binary.BigEndian.PutUint64(dst[1:], id)
	return dst
}

func encodePut(id uint64, key string, val []byte) []byte {
	dst := appendBytes(commandHeader(opPut, id), []byte(key))
	return appendBytes(dst, val)
}

// batchPairBytes bounds what one pair adds to an opBatchPut command.
func batchPairBytes(p Pair) int {
	return 8 + 2*binary.MaxVarintLen32 + len(p.Key) + len(p.Val)
}

// encodeBatchPut encodes pairs, pairs[i] under ids[i], as one command.
func encodeBatchPut(ids []uint64, pairs []Pair) []byte {
	size := 9 + binary.MaxVarintLen32
	for _, p := range pairs {
		size += batchPairBytes(p)
	}
	dst := make([]byte, 9, size)
	dst[0] = opBatchPut
	binary.BigEndian.PutUint64(dst[1:], ids[0])
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for i, p := range pairs {
		dst = binary.BigEndian.AppendUint64(dst, ids[i])
		dst = appendBytes(dst, []byte(p.Key))
		dst = appendBytes(dst, p.Val)
	}
	return dst
}

func encodeDelete(id uint64, key string) []byte {
	return appendBytes(commandHeader(opDelete, id), []byte(key))
}

// encodeAudit encodes a sequenced audit over ranges digest partitions.
func encodeAudit(id uint64, ranges int) []byte {
	return binary.AppendUvarint(commandHeader(opAudit, id), uint64(ranges))
}

// encodeCAS encodes a compare-and-swap. expectPresent=false means the swap
// succeeds only if the key is absent (atomic create).
func encodeCAS(id uint64, key string, expectPresent bool, expect, val []byte) []byte {
	dst := appendBytes(commandHeader(opCAS, id), []byte(key))
	if expectPresent {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendBytes(dst, expect)
	return appendBytes(dst, val)
}

// encodeGet encodes a sequenced read of one or more keys on one shard. The
// read travels the total order like a write, so the values it captures are
// linearizable.
func encodeGet(id uint64, keys []string) []byte {
	dst := binary.AppendUvarint(commandHeader(opGet, id), uint64(len(keys)))
	for _, k := range keys {
		dst = appendBytes(dst, []byte(k))
	}
	return dst
}

// appendRouting / takeRouting encode a routing table as three uvarints.
func appendRouting(dst []byte, rt Routing) []byte {
	dst = binary.AppendUvarint(dst, rt.Epoch)
	dst = binary.AppendUvarint(dst, uint64(rt.Shards))
	return binary.AppendUvarint(dst, uint64(rt.VNodes))
}

func takeRouting(src []byte) (Routing, []byte, error) {
	var rt Routing
	e, w := binary.Uvarint(src)
	if w <= 0 {
		return rt, nil, errBadCommand
	}
	src = src[w:]
	sh, w := binary.Uvarint(src)
	if w <= 0 || sh == 0 || sh > 1<<20 {
		return rt, nil, errBadCommand
	}
	src = src[w:]
	vn, w := binary.Uvarint(src)
	if w <= 0 || vn > 1<<20 {
		return rt, nil, errBadCommand
	}
	rt.Epoch, rt.Shards, rt.VNodes = e, int(sh), int(vn)
	return rt, src[w:], nil
}

// encodeMigrate encodes a begin, commit, or abort carrying the target table.
func encodeMigrate(op byte, id uint64, rt Routing) []byte {
	return appendRouting(commandHeader(op, id), rt)
}

// encodeMigrateImport encodes one chunk of pairs (and migrated dedup
// results and transaction portions) streamed into their new owner, tagged
// with the target epoch that gates its application.
func encodeMigrateImport(id uint64, rt Routing, chunk *importChunk) []byte {
	dst := appendRouting(commandHeader(opMigrateImport, id), rt)
	dst = binary.AppendUvarint(dst, uint64(len(chunk.Pairs)))
	for _, p := range chunk.Pairs {
		dst = appendBytes(dst, []byte(p.Key))
		dst = appendBytes(dst, p.Val)
	}
	dst = binary.AppendUvarint(dst, uint64(len(chunk.Results)))
	for _, r := range chunk.Results {
		dst = binary.BigEndian.AppendUint64(dst, r.ID)
		if r.OK {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, []byte(r.Key))
	}
	// Transaction portions travel as JSON (txnPortion's tags): they are rare
	// relative to pairs, and journals hold this spelling, so it stays.
	dst = binary.AppendUvarint(dst, uint64(len(chunk.Txns)))
	for _, p := range chunk.Txns {
		blob, err := json.Marshal(p)
		if err != nil {
			blob = nil // unreachable: txnPortion has no unmarshalable fields
		}
		dst = appendBytes(dst, blob)
	}
	return dst
}

// appendTxnWrites / appendTxnConds encode a prepare's write and condition
// sets, shared between the shard command and the access protocol.
func appendTxnWrites(dst []byte, writes []TxnWrite) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(writes)))
	for _, w := range writes {
		dst = appendBytes(dst, []byte(w.Key))
		if w.Delete {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, w.Val)
	}
	return dst
}

func takeTxnWrites(src []byte) ([]TxnWrite, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w)/3 { // a write is at least three bytes
		return nil, nil, errBadCommand
	}
	src = src[w:]
	out := make([]TxnWrite, 0, n)
	for i := uint64(0); i < n; i++ {
		raw, rest, err := takeBytes(src)
		if err != nil {
			return nil, nil, err
		}
		tw := TxnWrite{Key: string(raw)}
		if len(rest) < 1 {
			return nil, nil, errBadCommand
		}
		tw.Delete = rest[0] != 0
		if tw.Val, src, err = takeBytes(rest[1:]); err != nil {
			return nil, nil, err
		}
		out = append(out, tw)
	}
	return out, src, nil
}

func appendTxnConds(dst []byte, conds []TxnCond) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(conds)))
	for _, c := range conds {
		dst = appendBytes(dst, []byte(c.Key))
		if c.ExpectPresent {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, c.Expect)
	}
	return dst
}

func takeTxnConds(src []byte) ([]TxnCond, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w)/3 { // a condition is at least three bytes
		return nil, nil, errBadCommand
	}
	src = src[w:]
	out := make([]TxnCond, 0, n)
	for i := uint64(0); i < n; i++ {
		raw, rest, err := takeBytes(src)
		if err != nil {
			return nil, nil, err
		}
		tc := TxnCond{Key: string(raw)}
		if len(rest) < 1 {
			return nil, nil, errBadCommand
		}
		tc.ExpectPresent = rest[0] != 0
		if tc.Expect, src, err = takeBytes(rest[1:]); err != nil {
			return nil, nil, err
		}
		out = append(out, tc)
	}
	return out, src, nil
}

// appendKeys / takeKeys encode a key list. takeKeys, like takeTxnWrites and
// takeTxnConds, believes a count only up to what the remaining bytes could
// hold at the element's minimum size, which bounds what a hostile count can
// make it allocate.
func appendKeys(dst []byte, keys []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendBytes(dst, []byte(k))
	}
	return dst
}

func takeKeys(src []byte) ([]string, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w) { // a key is at least one byte
		return nil, nil, errBadCommand
	}
	src = src[w:]
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		raw, rest, err := takeBytes(src)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, string(raw))
		src = rest
	}
	return out, src, nil
}

// encodeTxnPrepare encodes a transaction prepare: lock the local keys, check
// the conditions, capture the reads — all at one position in the shard's
// total order. The txn id is carried in the payload (distinct from the
// command id) so re-drives with fresh command ids still converge on one
// portion.
func encodeTxnPrepare(id, txnID uint64, homeKey string, allKeys, reads []string, writes []TxnWrite, conds []TxnCond) []byte {
	dst := commandHeader(opTxnPrepare, id)
	dst = binary.BigEndian.AppendUint64(dst, txnID)
	dst = appendBytes(dst, []byte(homeKey))
	dst = appendKeys(dst, allKeys)
	dst = appendKeys(dst, reads)
	dst = appendTxnWrites(dst, writes)
	return appendTxnConds(dst, conds)
}

// encodeTxnResolve encodes a transaction resolve (commit or abort). It
// carries the full key set so a shard that never saw the prepare can fence
// the decision for the keys it serves.
func encodeTxnResolve(id, txnID uint64, commit bool, homeKey string, allKeys []string) []byte {
	dst := commandHeader(opTxnResolve, id)
	dst = binary.BigEndian.AppendUint64(dst, txnID)
	if commit {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendBytes(dst, []byte(homeKey))
	return appendKeys(dst, allKeys)
}

// --- Access protocol (client ↔ service) --------------------------------------
//
// The shard-command codec above is what travels a shard group's total order;
// the access protocol below is what travels between a client and a node's
// Service over Amoeba RPC — and, re-rendered as text, over amoeba-kv's TCP
// line protocol — so the in-process client, the RPC proxy, and the external
// daemon speak one protocol. Requests are self-describing and versioned:
//
//	ver(1) | op(1) | flags(1) | budget-ms uvarint | epoch uvarint | id(8) | op payload
//
// and responses:
//
//	ver(1) | status(1) | status payload
//
// Command ids are chosen by the originating client and carried end to end
// (batch ops carry one id per element): replicas deduplicate applies by id,
// which is what keeps retries exactly-once across RPC retransmissions,
// ForwardRequest hops, shard failovers, and routing-epoch flips. The epoch
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
// count and replication factor a fleet-shaped client steers reads with).
const ProtoVersion = 4

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
	// ReqBatchPut writes Pairs, each deduplicated by its own id in IDs.
	ReqBatchPut
	// ReqTxnPrepare locks one shard's portion of a transaction (TxnID,
	// HomeKey, AllKeys; local reads in Keys, plus Writes and Conds) and
	// captures its reads. Issued by the 2PC coordinator in Client.Txn.
	ReqTxnPrepare
	// ReqTxnResolve commits (Commit true) or aborts one shard's portion of
	// TxnID. Key names a representative key the portion serves, so routing
	// follows the portion across reshardings.
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
	// ID is the command id (single-command ops). The zero value asks the
	// client to assign one; it is always set on the wire.
	ID uint64
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
	// IDs carries one command id per Pairs element, preserved verbatim
	// across splits and forwards so every node deduplicates identically.
	IDs []uint64 // ReqBatchPut

	// Transaction fields (ReqTxn, ReqTxnPrepare, ReqTxnResolve). TxnID is
	// the transaction's identity across every participant shard; HomeKey
	// names the home portion whose shard order arbitrates the outcome;
	// AllKeys is the full (sorted) key set, carried so any shard can fence
	// the decision for keys it serves.
	TxnID   uint64
	HomeKey string
	AllKeys []string
	Writes  []TxnWrite // ReqTxn, ReqTxnPrepare (local subset)
	Conds   []TxnCond  // ReqTxn, ReqTxnPrepare (local subset)
	Commit  bool       // ReqTxnResolve: the decision being applied
}

// EncodeRequest renders a request for the wire.
func EncodeRequest(r *Request) []byte {
	dst := make([]byte, 0, 64)
	dst = append(dst, ProtoVersion, r.Op, r.Flags)
	dst = binary.AppendUvarint(dst, uint64(r.Budget/time.Millisecond))
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	switch r.Op {
	case ReqGet:
		// v4: the staleness bound precedes the keys (always present).
		dst = binary.AppendUvarint(dst, uint64(r.MaxStale/time.Millisecond))
		dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			dst = appendBytes(dst, []byte(k))
		}
	case ReqPut:
		dst = appendBytes(dst, []byte(r.Key))
		dst = appendBytes(dst, r.Val)
	case ReqDelete:
		dst = appendBytes(dst, []byte(r.Key))
	case ReqCAS:
		dst = appendBytes(dst, []byte(r.Key))
		if r.ExpectPresent {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, r.Expect)
		dst = appendBytes(dst, r.Val)
	case ReqBatchPut:
		dst = binary.AppendUvarint(dst, uint64(len(r.Pairs)))
		for i, p := range r.Pairs {
			dst = binary.BigEndian.AppendUint64(dst, r.IDs[i])
			dst = appendBytes(dst, []byte(p.Key))
			dst = appendBytes(dst, p.Val)
		}
	case ReqTxnPrepare:
		dst = binary.BigEndian.AppendUint64(dst, r.TxnID)
		dst = appendBytes(dst, []byte(r.HomeKey))
		dst = appendKeys(dst, r.AllKeys)
		dst = appendKeys(dst, r.Keys)
		dst = appendTxnWrites(dst, r.Writes)
		dst = appendTxnConds(dst, r.Conds)
	case ReqTxnResolve:
		dst = binary.BigEndian.AppendUint64(dst, r.TxnID)
		if r.Commit {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
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
	rest := b[3:]
	ms, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, errBadRequest
	}
	r.Budget = time.Duration(ms) * time.Millisecond
	rest = rest[w:]
	epoch, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, errBadRequest
	}
	r.Epoch = epoch
	rest = rest[w:]
	if len(rest) < 8 {
		return nil, errBadRequest
	}
	r.ID = binary.BigEndian.Uint64(rest)
	rest = rest[8:]
	var raw []byte
	var err error
	switch r.Op {
	case ReqGet:
		stale, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, errBadRequest
		}
		r.MaxStale = time.Duration(stale) * time.Millisecond
		if r.Keys, _, err = takeKeys(rest[w:]); err != nil || len(r.Keys) == 0 {
			return nil, errBadRequest
		}
	case ReqPut:
		if raw, rest, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		r.Key = string(raw)
		if r.Val, _, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
	case ReqDelete:
		if raw, _, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		r.Key = string(raw)
	case ReqCAS:
		if raw, rest, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		r.Key = string(raw)
		if len(rest) < 1 {
			return nil, errBadRequest
		}
		r.ExpectPresent = rest[0] != 0
		rest = rest[1:]
		if r.Expect, rest, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		if r.Val, _, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
	case ReqBatchPut:
		n, w := binary.Uvarint(rest)
		if w <= 0 || n == 0 || n > uint64(len(rest)-w)/10 { // a pair is at least ten bytes
			return nil, errBadRequest
		}
		rest = rest[w:]
		r.Pairs = make([]Pair, 0, n)
		r.IDs = make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(rest) < 8 {
				return nil, errBadRequest
			}
			r.IDs = append(r.IDs, binary.BigEndian.Uint64(rest))
			rest = rest[8:]
			if raw, rest, err = takeBytes(rest); err != nil {
				return nil, errBadRequest
			}
			key := string(raw)
			if raw, rest, err = takeBytes(rest); err != nil {
				return nil, errBadRequest
			}
			r.Pairs = append(r.Pairs, Pair{Key: key, Val: raw})
		}
	case ReqTxnPrepare:
		if len(rest) < 8 {
			return nil, errBadRequest
		}
		r.TxnID = binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		if raw, rest, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		r.HomeKey = string(raw)
		if r.AllKeys, rest, err = takeKeys(rest); err != nil {
			return nil, errBadRequest
		}
		if r.Keys, rest, err = takeKeys(rest); err != nil {
			return nil, errBadRequest
		}
		if r.Writes, rest, err = takeTxnWrites(rest); err != nil {
			return nil, errBadRequest
		}
		if r.Conds, _, err = takeTxnConds(rest); err != nil {
			return nil, errBadRequest
		}
	case ReqTxnResolve:
		if len(rest) < 9 {
			return nil, errBadRequest
		}
		r.TxnID = binary.BigEndian.Uint64(rest)
		r.Commit = rest[8] != 0
		rest = rest[9:]
		if raw, rest, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		r.Key = string(raw)
		if raw, rest, err = takeBytes(rest); err != nil {
			return nil, errBadRequest
		}
		r.HomeKey = string(raw)
		if r.AllKeys, _, err = takeKeys(rest); err != nil {
			return nil, errBadRequest
		}
	case ReqTxn:
		if r.Keys, rest, err = takeKeys(rest); err != nil {
			return nil, errBadRequest
		}
		if r.Writes, rest, err = takeTxnWrites(rest); err != nil {
			return nil, errBadRequest
		}
		if r.Conds, _, err = takeTxnConds(rest); err != nil {
			return nil, errBadRequest
		}
	default:
		return nil, fmt.Errorf("kv: unknown request op %d: %w", r.Op, errBadRequest)
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
	dst := make([]byte, 0, 32)
	if r.Err != "" {
		dst = append(dst, ProtoVersion, statusErr)
		return appendBytes(dst, []byte(r.Err))
	}
	dst = append(dst, ProtoVersion, statusOK)
	if r.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
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
	if r.Routing != nil {
		dst = append(dst, 1)
		dst = appendRouting(dst, *r.Routing)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for i, v := range r.Values {
		if i < len(r.Found) && r.Found[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
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
	rest := b[2:]
	switch b[1] {
	case statusErr:
		raw, _, err := takeBytes(rest)
		if err != nil {
			return nil, errBadRequest
		}
		r.Err = string(raw)
		if r.Err == "" {
			r.Err = "kv: unspecified remote error"
		}
		return r, nil
	case statusOK:
		if len(rest) < 3 {
			return nil, errBadRequest
		}
		r.OK = rest[0] != 0
		r.TxnState = rest[1] & 3
		r.Conflict = rest[1]&(1<<2) != 0
		r.CondFailed = rest[1]&(1<<3) != 0
		r.ReadPath = rest[2]
		rest = rest[3:]
		stale, w := binary.Uvarint(rest)
		if w <= 0 || stale > uint64(math.MaxInt64/time.Millisecond) {
			return nil, errBadRequest
		}
		r.StaleFor = time.Duration(stale) * time.Millisecond
		rest = rest[w:]
		nodes, w := binary.Uvarint(rest)
		if w <= 0 || nodes > 1<<20 {
			return nil, errBadRequest
		}
		r.Nodes = int(nodes)
		rest = rest[w:]
		repl, w := binary.Uvarint(rest)
		if w <= 0 || repl > 1<<20 {
			return nil, errBadRequest
		}
		r.Replication = int(repl)
		rest = rest[w:]
		if len(rest) < 1 {
			return nil, errBadRequest
		}
		hasRouting := rest[0] != 0
		rest = rest[1:]
		if hasRouting {
			rt, tail, err := takeRouting(rest)
			if err != nil {
				return nil, errBadRequest
			}
			r.Routing = &rt
			rest = tail
		}
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w)/2 { // a value is at least two bytes
			return nil, errBadRequest
		}
		rest = rest[w:]
		r.Values = make([][]byte, 0, n)
		r.Found = make([]bool, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(rest) < 1 {
				return nil, errBadRequest
			}
			found := rest[0] != 0
			rest = rest[1:]
			raw, tail, err := takeBytes(rest)
			if err != nil {
				return nil, errBadRequest
			}
			rest = tail
			val := append([]byte(nil), raw...)
			if !found {
				val = nil
			}
			r.Values = append(r.Values, val)
			r.Found = append(r.Found, found)
		}
		return r, nil
	default:
		return nil, errBadRequest
	}
}

// command is the decoded form of a wire command.
type command struct {
	op            byte
	id            uint64
	key           string
	val           []byte
	expectPresent bool
	expect        []byte
	keys          []string       // opGet; opTxnPrepare: the read set
	routing       Routing        // migrate ops: the target table
	pairs         []Pair         // opMigrateImport, opBatchPut
	ids           []uint64       // opBatchPut: one id per pair
	impResults    []importResult // opMigrateImport: migrated dedup results
	txns          []*txnPortion  // opMigrateImport: migrated txn portions
	txnID         uint64         // txn ops
	txnCommit     bool           // opTxnResolve: the decision
	homeKey       string         // txn ops
	allKeys       []string       // txn ops
	writes        []TxnWrite     // opTxnPrepare
	conds         []TxnCond      // opTxnPrepare
	ranges        int            // opAudit: digest partition count
}

func decodeCommand(b []byte) (command, error) {
	if len(b) < 9 {
		return command{}, errBadCommand
	}
	c := command{op: b[0], id: binary.BigEndian.Uint64(b[1:9])}
	rest := b[9:]
	var err error
	var raw []byte
	switch c.op {
	case opPut:
		if raw, rest, err = takeBytes(rest); err != nil {
			return command{}, err
		}
		c.key = string(raw)
		if c.val, _, err = takeBytes(rest); err != nil {
			return command{}, err
		}
	case opDelete:
		if raw, _, err = takeBytes(rest); err != nil {
			return command{}, err
		}
		c.key = string(raw)
	case opCAS:
		if raw, rest, err = takeBytes(rest); err != nil {
			return command{}, err
		}
		c.key = string(raw)
		if len(rest) < 1 {
			return command{}, errBadCommand
		}
		c.expectPresent = rest[0] != 0
		rest = rest[1:]
		if c.expect, rest, err = takeBytes(rest); err != nil {
			return command{}, err
		}
		if c.val, _, err = takeBytes(rest); err != nil {
			return command{}, err
		}
	case opGet:
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)) {
			return command{}, errBadCommand
		}
		rest = rest[w:]
		c.keys = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			if raw, rest, err = takeBytes(rest); err != nil {
				return command{}, err
			}
			c.keys = append(c.keys, string(raw))
		}
	case opMigrateBegin, opMigrateCommit, opMigrateAbort:
		if c.routing, _, err = takeRouting(rest); err != nil {
			return command{}, err
		}
	case opMigrateImport:
		if c.routing, rest, err = takeRouting(rest); err != nil {
			return command{}, err
		}
		// Each count is bounded by what the bytes left could hold at the
		// element's minimum size, as a batch put's is.
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w)/2 { // a pair is at least two bytes
			return command{}, errBadCommand
		}
		rest = rest[w:]
		c.pairs = make([]Pair, 0, n)
		for i := uint64(0); i < n; i++ {
			if raw, rest, err = takeBytes(rest); err != nil {
				return command{}, err
			}
			key := string(raw)
			if raw, rest, err = takeBytes(rest); err != nil {
				return command{}, err
			}
			c.pairs = append(c.pairs, Pair{Key: key, Val: append([]byte(nil), raw...)})
		}
		n, w = binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w)/10 { // a result is at least ten bytes
			return command{}, errBadCommand
		}
		rest = rest[w:]
		c.impResults = make([]importResult, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(rest) < 9 {
				return command{}, errBadCommand
			}
			ir := importResult{ID: binary.BigEndian.Uint64(rest), OK: rest[8] != 0}
			rest = rest[9:]
			if raw, rest, err = takeBytes(rest); err != nil {
				return command{}, err
			}
			ir.Key = string(raw)
			c.impResults = append(c.impResults, ir)
		}
		n, w = binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w)/3 { // a portion is at least a length and "{}"
			return command{}, errBadCommand
		}
		rest = rest[w:]
		c.txns = make([]*txnPortion, 0, n)
		for i := uint64(0); i < n; i++ {
			if raw, rest, err = takeBytes(rest); err != nil {
				return command{}, err
			}
			p := &txnPortion{}
			if err := json.Unmarshal(raw, p); err != nil {
				return command{}, errBadCommand
			}
			c.txns = append(c.txns, p)
		}
	case opTxnPrepare:
		if len(rest) < 8 {
			return command{}, errBadCommand
		}
		c.txnID = binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		if raw, rest, err = takeBytes(rest); err != nil {
			return command{}, err
		}
		c.homeKey = string(raw)
		if c.allKeys, rest, err = takeKeys(rest); err != nil {
			return command{}, err
		}
		if c.keys, rest, err = takeKeys(rest); err != nil {
			return command{}, err
		}
		if c.writes, rest, err = takeTxnWrites(rest); err != nil {
			return command{}, err
		}
		if c.conds, _, err = takeTxnConds(rest); err != nil {
			return command{}, err
		}
	case opTxnResolve:
		if len(rest) < 9 {
			return command{}, errBadCommand
		}
		c.txnID = binary.BigEndian.Uint64(rest)
		c.txnCommit = rest[8] != 0
		rest = rest[9:]
		if raw, rest, err = takeBytes(rest); err != nil {
			return command{}, err
		}
		c.homeKey = string(raw)
		if c.allKeys, _, err = takeKeys(rest); err != nil {
			return command{}, err
		}
	case opAudit:
		n, w := binary.Uvarint(rest)
		if w <= 0 || n == 0 || n > maxAuditRanges {
			return command{}, errBadCommand
		}
		c.ranges = int(n)
	case opBatchPut:
		// A pair is at least ten bytes, which bounds what a hostile count can
		// make this allocate.
		n, w := binary.Uvarint(rest)
		if w <= 0 || n == 0 || n > uint64(len(rest)-w)/10 {
			return command{}, errBadCommand
		}
		rest = rest[w:]
		c.ids = make([]uint64, 0, n)
		c.pairs = make([]Pair, 0, n)
		for i := uint64(0); i < n; i++ {
			if len(rest) < 8 {
				return command{}, errBadCommand
			}
			c.ids = append(c.ids, binary.BigEndian.Uint64(rest))
			if raw, rest, err = takeBytes(rest[8:]); err != nil {
				return command{}, err
			}
			key := string(raw)
			if raw, rest, err = takeBytes(rest); err != nil {
				return command{}, err
			}
			// The value is copied out, as an import's is: the state machine
			// keeps it, and it must not keep the whole command alive.
			c.pairs = append(c.pairs, Pair{Key: key, Val: append([]byte(nil), raw...)})
		}
		if len(rest) != 0 || c.ids[0] != c.id {
			return command{}, errBadCommand
		}
	default:
		return command{}, fmt.Errorf("kv: unknown op %d: %w", c.op, errBadCommand)
	}
	return c, nil
}
