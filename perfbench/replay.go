package main

import (
	"bytes"
	"fmt"
	"time"

	"crafty/internal/core"
	"crafty/internal/kv"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/workloads/ycsb"
)

// craftykv's default configuration, which the replay mirrors: index shards,
// initial slots per shard, heap and arena sizes in words, and scheduler
// workers (worker = shard mod workers).
const (
	serverShards     = 64
	serverSlots      = 256
	serverHeapWords  = 1 << 24
	serverArenaWords = 1 << 22
	serverPool       = 8
)

// replayResult is the kv/core time split of a served workload, measured in
// process because the server is a separate process.
type replayResult struct {
	ops           float64
	split         selfTime // Store.Apply calls and their Atomic/AtomicRead children
	atomicNs      float64
	atomicReadNs  float64
	before, after snapshot
	failed        int64
	failures      []string
	tr            *tracer
}

// replayQueue is one worker's pending operations; values live in buf until
// the batch is applied.
type replayQueue struct {
	ops  []kv.Op
	vers []uint32
	buf  []byte
}

// replay sends the served workload's seeded op stream through
// kv.Store.Apply on a Crafty engine built like the server's (same shards,
// heap and arena, persistence tracking on, no drain latency), routing ops
// to per-worker queues by shard and applying each queue in batches of the
// server's measured mean drain size. Each Apply is a span; its Atomic and
// AtomicRead calls are child spans, and their time is split from Apply's
// own for every call of the replay.
func replay(spec servedSpec, zipf *ycsb.Zipf, seed int64, batch int, d time.Duration) (replayResult, error) {
	var res replayResult
	heap := nvm.NewHeap(nvm.Config{Words: serverHeapWords, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: serverArenaWords})
	if err != nil {
		return res, err
	}
	defer eng.Close()
	tr := newTracer(time.Now())
	res.tr = tr
	plain := make([]ptm.Thread, serverPool)
	timed := make([]*timedThread, serverPool)
	for i := range plain {
		plain[i] = eng.Register()
		timed[i] = newTimedThread(plain[i], tr)
	}
	store, err := kv.Create(eng, plain[0], kv.Config{Shards: serverShards, InitialSlotsPerShard: serverSlots})
	if err != nil {
		return res, err
	}
	ks := newKeyspace(spec)
	queues := make([]replayQueue, serverPool)
	var results []kv.OpResult
	var dst, want []byte
	traced := false
	apply := func(w int) {
		q := &queues[w]
		th := plain[w]
		var id uint64
		var start int64
		if traced {
			id = tr.newID()
			timed[w].parent = id
			th = timed[w]
			start = tr.now()
		}
		results, dst, _ = store.Apply(th, q.ops, results, dst[:0])
		if traced {
			end := tr.now()
			tr.record(spanApply, id, 0, start, end)
			res.split.add(end-start, timed[w].childNs)
			timed[w].childNs = 0
		}
		for i, op := range q.ops {
			r := results[i]
			k := keyIndex(op.Key)
			switch {
			case r.Err != nil:
				res.fail(fmt.Sprintf("%s %s: %v", op.Kind, op.Key, r.Err))
			case op.Kind == kv.OpPut:
				ks.acked[k] = q.vers[i]
			default:
				want = ks.appendValue(want[:0], k, q.vers[i])
				if !bytes.Equal(r.Value, want) {
					res.fail(fmt.Sprintf("get %s: %q, want version %d", op.Key, r.Value, q.vers[i]))
				}
			}
		}
		q.ops, q.vers, q.buf = q.ops[:0], q.vers[:0], q.buf[:0]
	}
	// enqueue queues one op on the worker owning its key's shard and applies
	// the queue once it holds size ops. A value appended to q.buf stays
	// valid even if the append moves the buffer: earlier ops keep the old
	// backing array.
	enqueue := func(kind uint8, k, ver uint32, size int) {
		w := store.ShardOf(ks.keys[k]) % serverPool
		q := &queues[w]
		op := kv.Op{Kind: kv.OpGet, Key: ks.keys[k]}
		if kind == opPut {
			off := len(q.buf)
			q.buf = ks.appendValue(q.buf, k, ver)
			op.Kind, op.Value = kv.OpPut, q.buf[off:len(q.buf):len(q.buf)]
		}
		q.ops = append(q.ops, op)
		q.vers = append(q.vers, ver)
		if len(q.ops) >= size {
			apply(w)
		}
	}
	drainAll := func() {
		for w := range queues {
			if len(queues[w].ops) > 0 {
				apply(w)
			}
		}
	}

	// Preload every key at version 0, then the served runs' warm-up rule:
	// traffic until the incremental rehash is idle.
	for k := range ks.keys {
		enqueue(opPut, uint32(k), 0, preloadBatch)
	}
	drainAll()
	streams := []*stream{newStream(spec, zipf, seed, 0, loadConns), newStream(spec, zipf, seed, 1, loadConns)}
	i := 0
	next := func() {
		kind, k := streams[i%len(streams)].next()
		i++
		if kind == opPut {
			ks.sent[k]++
		}
		enqueue(kind, k, ks.sent[k], batch)
	}
	for warm := 1; ; warm++ {
		next()
		if warm >= minWarmOps && warm%1024 == 0 {
			z, m := store.RehashStates(heap)
			if z == 0 && m == 0 {
				break
			}
			if warm > 100*len(ks.keys) {
				return res, fmt.Errorf("replay warm-up: rehash still active after %d operations (zeroing %d, migrating %d shards)", warm, z, m)
			}
		}
	}
	drainAll()

	reg := engineRegistry(eng, store)
	res.before = reg.SnapshotMap()
	traced = true
	deadline := time.Now().Add(d)
	for n := 1; ; n++ {
		next()
		if n%1024 == 0 && time.Now().After(deadline) {
			res.ops = float64(n)
			break
		}
	}
	drainAll()
	res.after = reg.SnapshotMap()
	res.atomicNs = meanNs(spanAtomic, tr)
	res.atomicReadNs = meanNs(spanAtomicRead, tr)
	return res, nil
}

func (r *replayResult) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, "replay: "+msg)
	}
}

// keyIndex recovers a key's index from its "k%07d" form.
func keyIndex(key []byte) uint32 {
	var n uint32
	for _, c := range key[1:] {
		n = n*10 + uint32(c-'0')
	}
	return n
}
