// The sharded request scheduler: instead of borrowing an engine thread per
// request (one durable transaction per client op, serialized through a
// channel round-trip), every connection routes its keyed operations onto
// per-worker queues — worker = shard mod workers, so same-shard traffic from
// every connection shares a queue — and each worker drains its queue into one
// Store.Apply call: a drained batch of K mutations from any number of
// connections commits in the worker's shard groups, paying the engine's
// per-transaction toll (Log-phase HTM commit, LOGGED/COMMITTED marker pair,
// batched flush) once per group instead of once per op. Completions are
// routed back to each connection's pipelined writer, which renders responses
// strictly in that connection's request order.
package main

import (
	"bufio"
	"sync"
	"sync/atomic"
	"time"

	"crafty"
	"crafty/internal/repl"
)

// cmdKind selects how a completed request renders.
type cmdKind uint8

const (
	cmdInline cmdKind = iota // pre-rendered text (errors, OK-style acks)
	cmdPut                   // OK | ERR
	cmdGet                   // VAL v | NIL | ERR
	cmdDel                   // OK | NIL | ERR
	cmdMGet                  // one VAL/NIL line per key
	cmdMPut                  // OK <n> | ERR (first failure)
	cmdMDel                  // one OK/NIL line per key
	cmdLen                   // LEN <n> | ERR
	cmdHello                 // binary handshake ack (wire.go); n is the version
)

// opResult is one operation's outcome, copied out of the worker's reused
// Apply buffers into request-owned storage.
type opResult struct {
	found bool
	val   []byte
	err   error
}

// request is one wire command in flight: its parsed operations, their
// results, and the count of operations still in flight. Requests are pooled;
// all slices are reused across requests.
//
// Completion allocates nothing: instead of a channel per request, the last
// worker to finish one of the request's operations kicks sig, the waiting
// side's reusable wake-up channel (capacity 1; one per connection, or one
// per replication apply), and the waiter re-checks remaining after every
// kick (see wait).
type request struct {
	cmd  cmdKind
	text string // cmdInline rendering

	ops []crafty.KVOp
	res []opResult
	buf []byte // backing storage for the ops' copied keys and values

	n         uint64 // cmdLen result
	err       error  // request-level failure (cmdLen)
	remaining atomic.Int32
	sig       chan struct{}

	// t0 is when the socket read that delivered this request's bytes
	// returned (one clock read per read, shared by every request parsed from
	// it), for the arrival→reply latency histogram. Stamped and read strictly
	// outside any transaction; zero for requests that no client sent.
	t0 time.Time

	// notify, when non-nil, is closed by the connection writer once this
	// request has been processed in order — the reader's progress barrier
	// (connReader.waitPrior).
	notify chan struct{}
}

var requestPool = sync.Pool{New: func() any { return &request{} }}

// newRequest draws a reset request from the pool.
func newRequest(cmd cmdKind) *request {
	r := requestPool.Get().(*request)
	r.cmd = cmd
	r.text = ""
	r.ops = r.ops[:0]
	r.res = r.res[:0]
	r.buf = r.buf[:0]
	r.n = 0
	r.err = nil
	r.remaining.Store(0)
	r.sig = nil
	r.notify = nil
	r.t0 = time.Time{}
	return r
}

// inlineRequest is a request carrying fixed response text and no scheduler
// work; it rides the connection's pending queue so immediate replies stay
// ordered with in-flight operations. Like every request without keyed
// operations it starts complete (remaining = 0).
func inlineRequest(text string) *request {
	r := newRequest(cmdInline)
	r.text = text
	return r
}

// copyBytes copies s into the request's backing buffer and returns the
// aliasing slice (safe across buffer growth: earlier slices keep the old
// backing array alive). Taking a string avoids a throwaway []byte(token)
// allocation per parsed token.
func (r *request) copyBytes(s string) []byte {
	off := len(r.buf)
	r.buf = append(r.buf, s...)
	return r.buf[off : off+len(s) : off+len(s)]
}

// copyBuf is copyBytes over a byte token — the text tokenizer's and the
// binary frame decoder's entry point; both hand in slices aliasing a
// connection read buffer that is reused after dispatch, so this copy is the
// aliasing boundary.
func (r *request) copyBuf(b []byte) []byte {
	off := len(r.buf)
	r.buf = append(r.buf, b...)
	return r.buf[off : off+len(b) : off+len(b)]
}

// addOp appends one operation, copying key and value; an empty value means
// none (wire tokens are never empty).
func (r *request) addOp(kind crafty.KVOpKind, key, value string) {
	op := crafty.KVOp{Kind: kind, Key: r.copyBytes(key)}
	if value != "" {
		op.Value = r.copyBytes(value)
	}
	r.pushOp(op)
}

// addOpBytes is addOp over byte tokens.
func (r *request) addOpBytes(kind crafty.KVOpKind, key, value []byte) {
	op := crafty.KVOp{Kind: kind, Key: r.copyBuf(key)}
	if len(value) > 0 {
		op.Value = r.copyBuf(value)
	}
	r.pushOp(op)
}

// pushOp appends op and its result slot. The slot is recycled in place when
// the pooled slice has capacity, so its value buffer's backing array survives
// across requests.
func (r *request) pushOp(op crafty.KVOp) {
	r.ops = append(r.ops, op)
	if n := len(r.res); n < cap(r.res) {
		r.res = r.res[:n+1]
		s := &r.res[n]
		s.found = false
		s.err = nil
		s.val = s.val[:0]
	} else {
		r.res = append(r.res, opResult{})
	}
}

// task is one scheduler queue item: either one operation of a request, a
// whole-store read (LEN), or a durability barrier.
type task struct {
	req *request
	op  int // index into req.ops; -1 for barriers and cmdLen

	// barrier, when non-nil, asks the worker to rendezvous with the other
	// workers and then quiesce its own thread's log; errSlot receives a
	// failure. See server.sync for the two-phase protocol and why the
	// rendezvous is load-bearing.
	barrier *syncBarrier
	errSlot *error
}

// syncBarrier coordinates one SYNC across every worker: all workers first
// arrive (their pre-barrier operations have committed), then — and only then
// — each quiesces its own thread's log. Drawing the quiesce timestamps after
// the rendezvous is what makes the barrier sound: recovery rolls back every
// sequence with ts >= R, R the minimum over threads of the newest persisted
// sequence, so a quiesce marker timestamped before another worker's
// still-in-flight covered commit would drag R below that commit and recovery
// would undo an acknowledged, synced write.
type syncBarrier struct {
	arrive  sync.WaitGroup
	release chan struct{} // closed once every worker has arrived
	done    sync.WaitGroup

	// Checkpoint rendezvous (nil resume = plain SYNC): after quiescing, each
	// worker parks again until resume closes, giving server.syncWith a window
	// where every log is synced and no transaction can start — the only
	// moment a checkpoint's verified watermark is sound to write (and free-
	// block coalescing is safe).
	quiesced sync.WaitGroup
	resume   chan struct{}
}

// worker owns one engine thread (indexed by id into server.threads) and one
// queue; it is the only goroutine that ever uses that thread.
type worker struct {
	srv   *server
	id    int
	queue chan task

	// tapOps is the reused staging buffer for the replication tap: the
	// batch's committed mutations, handed to repl.Log.Append (which deep-
	// copies) right after the group commit returns.
	tapOps []repl.Op
}

// enqueue routes one operation of req (already counted in req.remaining) to
// the worker owning its key's shard.
func (s *server) enqueue(req *request, op int) {
	w := s.workers[s.router.ShardOf(req.ops[op].Key)%len(s.workers)]
	w.queue <- task{req: req, op: op}
}

// submit enqueues every operation of req; requests with no keyed operations
// are already complete. req.sig must be set before submit: a worker may
// complete the request before submit returns.
func (s *server) submit(req *request) {
	if len(req.ops) == 0 && req.cmd != cmdLen {
		return
	}
	if req.cmd == cmdLen {
		req.remaining.Store(1)
		s.workers[0].queue <- task{req: req, op: -1}
		return
	}
	// Count every operation before enqueueing any. Workers start completing
	// already-queued operations while later ones are still being routed, so
	// an incremental count can hit zero early — acknowledging the request,
	// rendering results whose slots are still being written, and (worse)
	// letting a SYNC issued after the premature ack barrier the workers
	// before the request's last group commit, so a crash rolled back an
	// acknowledged, synced write.
	req.remaining.Store(int32(len(req.ops)))
	for i := range req.ops {
		s.enqueue(req, i)
	}
}

// run is the worker's drain loop: block for one task, drain what else is
// already queued (up to the drain bound), execute the batch's operations in
// one Store.Apply — the group commit — and route completions.
func (w *worker) run() {
	var (
		items []task
		ops   []crafty.KVOp
		res   []crafty.KVOpResult
		dst   []byte
	)
	for first := range w.queue {
		items = append(items[:0], first)
	drain:
		for len(items) < w.srv.cfg.Drain {
			select {
			case t := <-w.queue:
				items = append(items, t)
			default:
				break drain
			}
		}
		// Drained batch size, recorded between transactions (the Apply below
		// has not started); the distribution shows how much group-commit
		// batching the offered load actually achieves.
		w.srv.obs.drainBatch.Observe(int64(len(items)))

		w.srv.mu.RLock()
		th := w.srv.threads[w.id]
		store := w.srv.store

		ops = ops[:0]
		for _, t := range items {
			if t.req != nil && t.op >= 0 {
				ops = append(ops, t.req.ops[t.op])
			}
		}
		if len(ops) > 0 {
			//crafty:ignoreerr Apply's batch error is contractually nil; per-op failures (incl. ErrTxTooLarge) are consumed from res below
			res, dst, _ = store.Apply(th, ops, res, dst[:0])
			// Replication tap: append the batch's committed mutations to the
			// shared log before any completion (and before any barrier parking
			// later in this loop), so a SYNC barrier's fully-quiesced point
			// always covers every group the log covers.
			if rs := w.srv.repl; rs != nil && rs.tapping() {
				w.tap(items, res)
			}
		}

		j := 0
		for _, t := range items {
			switch {
			case t.barrier != nil:
				// Durability barrier, phase 1: this worker's pre-barrier
				// operations have all committed (they preceded the barrier in
				// this queue; ops drained alongside it ran in the Apply
				// above — over-delivery is fine). Park until every worker
				// reaches this point, so no quiesce timestamp can predate
				// another worker's covered commit (see syncBarrier). Parking
				// must not hold the server lock: a concurrent CRASH bidding
				// for the write lock would block the other workers' batch
				// read locks, they would never arrive, and the release would
				// never come.
				w.srv.mu.RUnlock()
				t.barrier.arrive.Done()
				<-t.barrier.release
				// Phase 2: quiesce this worker thread's own log. SyncDurable
				// appends a drained empty sequence, deterministically moving
				// the thread's newest persisted sequence past every covered
				// write. Re-read the thread: a CRASH while this worker was
				// parked replaces the engine, and quiescing the fresh log is
				// the harmless outcome (the crash already discarded whatever
				// the barrier was to cover). Later tasks in this batch reuse
				// th/store, so refresh both.
				w.srv.mu.RLock()
				th = w.srv.threads[w.id]
				store = w.srv.store
				if err := syncThread(th, w.srv.root); err != nil && t.errSlot != nil {
					*t.errSlot = err
				}
				if t.barrier.resume != nil {
					// Checkpoint rendezvous: park — again without the server
					// lock, for the same CRASH-deadlock reason — until the
					// barrier's hook has run at the fully quiesced point,
					// then refresh th/store once more (a concurrent CRASH may
					// have replaced the engine while this worker was parked).
					w.srv.mu.RUnlock()
					t.barrier.quiesced.Done()
					<-t.barrier.resume
					w.srv.mu.RLock()
					th = w.srv.threads[w.id]
					store = w.srv.store
				}
				t.barrier.done.Done()
			case t.op < 0:
				// LEN: a read-only sweep over the shard headers.
				t.req.n, t.req.err = store.Len(th)
				t.req.complete()
			default:
				r := &t.req.res[t.op]
				out := res[j]
				j++
				r.found = out.Found
				r.err = out.Err
				if out.Value != nil {
					// Copy out of the worker's reused value buffer before
					// the next batch overwrites it. Each op has its own
					// result slot, so concurrent workers completing one
					// request never share a destination.
					r.val = append(r.val[:0], out.Value...)
				} else {
					r.val = r.val[:0] // keep the backing array for reuse
				}
				t.req.complete()
			}
		}
		w.srv.mu.RUnlock()
	}
}

// tap collects the batch's successfully committed mutations into one
// replication group. Result indexing mirrors the completion loop: res[j] for
// every task with a request and a real op index, in drain order. Reads and
// failed operations are not replicated; reserved keys (the replica's own
// position record) never leave the machine. Append deep-copies, so aliasing
// the requests' op buffers here is safe even though they are pooled after
// completion.
func (w *worker) tap(items []task, res []crafty.KVOpResult) {
	w.tapOps = w.tapOps[:0]
	j := 0
	for _, t := range items {
		if t.req == nil || t.op < 0 {
			continue
		}
		op := t.req.ops[t.op]
		out := res[j]
		j++
		if out.Err != nil || replReserved(op.Key) {
			continue
		}
		switch op.Kind {
		case crafty.KVPut:
			w.tapOps = append(w.tapOps, repl.Op{Key: op.Key, Value: op.Value})
		case crafty.KVDelete:
			w.tapOps = append(w.tapOps, repl.Op{Delete: true, Key: op.Key})
		}
	}
	if len(w.tapOps) > 0 {
		w.srv.repl.log.Append(w.tapOps)
	}
}

// complete marks one operation done and kicks the waiter when it was the
// last. sig is read before the decrement: once the count reaches zero the
// waiter may pool the request and a new owner may repoint sig. The send never
// blocks; if the buffer is already full, a kick is pending and the waiter will
// re-check remaining anyway, so this completion cannot be lost.
func (r *request) complete() {
	sig := r.sig
	if r.remaining.Add(-1) == 0 {
		select {
		case sig <- struct{}{}:
		default:
		}
	}
}

// wait blocks until every operation of r has completed. A kick left over
// from another request sharing sig only costs one extra check.
func (r *request) wait() {
	for r.remaining.Load() != 0 {
		<-r.sig
	}
}

// render writes the completed request's response lines.
func render(out *bufio.Writer, req *request) {
	reply := func(format string, args ...any) { writeLinef(out, format, args...) }
	switch req.cmd {
	case cmdInline:
		if req.text == "" {
			return // no-output marker (connReader.waitPrior)
		}
		out.WriteString(req.text)
		out.WriteByte('\n')
	case cmdPut:
		if err := req.res[0].err; err != nil {
			reply("ERR %v", err)
		} else {
			reply("OK")
		}
	case cmdGet:
		renderGet(out, &req.res[0])
	case cmdMGet:
		for i := range req.res {
			renderGet(out, &req.res[i])
		}
	case cmdDel:
		renderDel(out, &req.res[0])
	case cmdMDel:
		for i := range req.res {
			renderDel(out, &req.res[i])
		}
	case cmdMPut:
		for i := range req.res {
			if err := req.res[i].err; err != nil {
				reply("ERR op %d: %v", i, err)
				return
			}
		}
		reply("OK %d", len(req.res))
	case cmdLen:
		if req.err != nil {
			reply("ERR %v", req.err)
		} else {
			reply("LEN %d", req.n)
		}
	}
}

func renderGet(out *bufio.Writer, r *opResult) {
	switch {
	case r.err != nil:
		writeLinef(out, "ERR %v", r.err)
	case !r.found:
		writeLinef(out, "NIL")
	default:
		out.WriteString("VAL ")
		out.Write(r.val)
		out.WriteByte('\n')
	}
}

func renderDel(out *bufio.Writer, r *opResult) {
	switch {
	case r.err != nil:
		writeLinef(out, "ERR %v", r.err)
	case !r.found:
		writeLinef(out, "NIL")
	default:
		writeLinef(out, "OK")
	}
}
