package main

import (
	"fmt"
	"math/rand"

	"crafty/internal/workloads/ycsb"
)

// servedSpec describes one served workload's traffic.
type servedSpec struct {
	binary  bool // binary protocol (internal/wire) instead of text lines
	getPct  int  // share of GETs in percent; the rest are PUTs
	zipfian bool // scrambled zipfian key choice instead of uniform
	records int  // keys preloaded and addressed
	minVal  int  // value sizes are drawn per (key, version) from [minVal, maxVal]
	maxVal  int
	crash   bool // end each repetition with SYNC, CRASH and a full read-back
}

// servedSpecs are the served workloads. Both address 16k records: about
// 1.6 MB of index and entry blocks, inside one core's 2 MiB L2 on the
// reference machine. At 100k records the working set lived in the L3 that
// the machine's other tenants share: kv-read runs ranged from 140k to 303k
// ops/s, while interleaved 10k-record runs agreed within 1%. 16k records
// (about 250 per shard) still take every shard of craftykv's default index
// (64 shards of 256 slots, grown past 3/4 full) through one incremental
// rehash during setup, so setup_s includes the index's growth.
var servedSpecs = map[string]servedSpec{
	"kv-read": {
		binary: true, getPct: 95, records: 16_000,
		minVal: 64, maxVal: 64,
	},
	"kv-write": {
		getPct: 50, zipfian: true, records: 16_000,
		minVal: 8, maxVal: 96, crash: true,
	},
}

// Operation kinds of a served stream.
const (
	opGet uint8 = iota
	opPut
)

// keyspace is the client's model of the store: every key, and per key the
// newest version sent and the newest version acknowledged. Values are a pure
// function of (key, version), so a reply is checked by regenerating the
// value it must equal. Each connection owns the keys congruent to its index
// modulo the connection count, so one key's operations travel on one
// connection, the server applies them in order, and a GET's expected value
// is exactly the last PUT sent before it.
type keyspace struct {
	spec  servedSpec
	keys  [][]byte
	sent  []uint32
	acked []uint32
}

func newKeyspace(spec servedSpec) *keyspace {
	ks := &keyspace{
		spec:  spec,
		keys:  make([][]byte, spec.records),
		sent:  make([]uint32, spec.records),
		acked: make([]uint32, spec.records),
	}
	for i := range ks.keys {
		ks.keys[i] = fmt.Appendf(nil, "k%07d", i)
	}
	return ks
}

// mix64 is the splitmix64 finalizer: a cheap, well-spread hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

const valueAlphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// valueSize is the length of version ver of key k.
func (ks *keyspace) valueSize(k, ver uint32) int {
	span := ks.spec.maxVal - ks.spec.minVal + 1
	return ks.spec.minVal + int(mix64(uint64(k)<<32|uint64(ver))%uint64(span))
}

// appendValue appends version ver of key k: the key and version in base 36
// (four digits each, so at least 8 bytes) and filler derived from both. The
// alphabet has no spaces, so the value is also a valid text-protocol token.
func (ks *keyspace) appendValue(dst []byte, k, ver uint32) []byte {
	n := ks.valueSize(k, ver)
	for _, x := range [2]uint32{k, ver} {
		for d := uint32(36 * 36 * 36); d > 0; d /= 36 {
			dst = append(dst, valueAlphabet[x/d%36])
		}
	}
	h := uint64(k)<<32 | uint64(ver)
	for i := 8; i < n; i++ {
		if i%8 == 0 {
			h = mix64(h)
		}
		dst = append(dst, valueAlphabet[(h>>(8*(i%8)))%uint64(len(valueAlphabet))])
	}
	return dst
}

// userBytes is the size of the live data as the client wrote it: every
// key plus its newest acknowledged value.
func (ks *keyspace) userBytes() float64 {
	var n int
	for k := range ks.keys {
		n += len(ks.keys[k]) + ks.valueSize(uint32(k), ks.acked[k])
	}
	return float64(n)
}

// stream generates one connection's operations from its own seeded random
// source.
type stream struct {
	rng         *rand.Rand
	zipf        *ycsb.Zipf
	getPct      int
	conn, conns int
	records     int
	requests    uint64 // requests issued from this stream: the request ids
}

func newStream(spec servedSpec, zipf *ycsb.Zipf, seed int64, conn, conns int) *stream {
	return &stream{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(conn))),
		zipf:    zipf,
		getPct:  spec.getPct,
		conn:    conn,
		conns:   conns,
		records: spec.records,
	}
}

// next draws one operation on a key this connection owns. Draws of another
// connection's key are redrawn, which keeps each key's share of this
// connection's traffic proportional to its popularity.
func (s *stream) next() (kind uint8, key uint32) {
	kind = opPut
	if s.rng.Intn(100) < s.getPct {
		kind = opGet
	}
	for {
		var id int
		if s.zipf != nil {
			// Scrambled zipfian (YCSB): hot ranks land on scattered keys.
			id = int(mix64(s.zipf.Next(s.rng)) % uint64(s.records))
		} else {
			id = s.rng.Intn(s.records)
		}
		if id%s.conns == s.conn {
			return kind, uint32(id)
		}
	}
}
