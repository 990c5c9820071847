// Command craftykv serves the durable key-value store over TCP: a minimal
// text protocol (GET/PUT/DEL and their batched forms) and a length-prefixed
// binary protocol (internal/wire, wire.go) over the crash-consistent kv
// subsystem running on a Crafty engine with persistence tracking enabled,
// demonstrating the store serving concurrent client connections and
// surviving a power failure.
//
// Requests flow through a sharded scheduler (scheduler.go): each connection's
// reader parses commands and routes their operations onto per-worker queues
// by key shard; each worker drains its queue and commits the drained
// mutations — from however many connections — in one kv group commit
// (Store.Apply), so concurrent write traffic pays the engine's
// per-transaction costs once per shard group instead of once per operation.
// Responses are routed back to each connection's writer goroutine, which
// renders them strictly in request order and flushes once per pipelined
// burst.
//
// Because the NVM is emulated in process memory, a "restart" is modelled the
// way the crash-consistency tests model it: the CRASH command injects a power
// failure (an adversarial persistence policy decides which unflushed words
// survive), runs the full recovery flow — crafty.Recover, crafty.Reopen,
// AdvanceClock, ReopenKV with index verification — and resumes serving the
// recovered store on the same listener. Clients observe exactly what they
// would observe across a real restart: every committed-and-persisted write
// survives; recently committed transactions may roll back whole.
//
// Protocol (one request per line, space-separated tokens; keys and values
// must not contain spaces):
//
//	PUT <key> <value>          -> OK
//	GET <key>                  -> VAL <value> | NIL
//	MGET <key> [...]           -> VAL <value> | NIL, one line per key in order
//	MPUT <key> <value> [...]   -> OK <n> (all pairs written) | ERR
//	MDEL <key> [...]           -> OK | NIL, one line per key in order
//	DEL <key>                  -> OK | NIL
//	LEN                        -> LEN <n>
//	STATS                      -> STATS live_blocks=<n> live_words=<n> ...
//	INFO                       -> INFO <n> header, then n "name value"
//	                              lines: the full metrics snapshot (engine
//	                              outcome counters, HTM commit/abort causes,
//	                              scheduler queue and latency stats, arena
//	                              and NVM counters) — the same data the
//	                              -metrics HTTP endpoint serves as JSON
//	SYNC                       -> OK            (scheduler barrier: every
//	                                             worker quiesces its log, so
//	                                             prior writes survive the
//	                                             next crash)
//	CHECKPOINT                 -> OK seq=<n> epoch=<n> dirty_shards=<n> ...
//	                              (incremental checkpoint: verifies the
//	                              shards dirtied since the last one and
//	                              persists a watermark bounding the next
//	                              recovery; also runs on a cadence under
//	                              -checkpoint)
//	CRASH                      -> OK rolled_back=<n> entries=<n>
//	                              verified_shards=<n> shards=<n>
//	                              full_verify=<bool>
//	PROMOTE                    -> OK gen=<n> seq=<n> (replica role only:
//	                              stop following the primary, checkpoint,
//	                              start accepting writes — the failover
//	                              command; see repl.go and DESIGN.md §12)
//	REPLINFO                   -> one-line replication summary (role,
//	                              generation, stream position, lag)
//	QUIT                       -> BYE
//
// With -repl-listen the server additionally streams its group commits to
// replicas (repl.go); with -replica-of it follows a primary and refuses
// client mutations until PROMOTE. Under -repl-sync, a SYNC reply further
// means the replica has durably acknowledged everything the barrier covers.
//
// MPUT/MDEL operations — like any same-shard operations queued by concurrent
// connections — share group commits; an MPUT's keys may span shards, in
// which case each shard group commits atomically (the batch as a whole is
// not one transaction).
//
// The same listener also speaks the binary protocol (DESIGN.md §14): a
// connection opening with the 0xCF 'K' 'V' <version> '\n' handshake is
// served length-prefixed frames instead of lines — the same command surface,
// zero-copy decode, and multi-op frames that map 1:1 onto scheduler groups.
// The first byte picks the mode (0xCF never begins a text command), so the
// text protocol above remains the drop-in debug interface.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crafty"
	"crafty/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", ":7070", "TCP listen address")
		shards      = flag.Int("shards", 64, "index shards (power of two)")
		slots       = flag.Int("slots", 256, "initial slots per shard (power of two)")
		heapWords   = flag.Int("heap-words", 1<<24, "emulated NVM heap size in 8-byte words")
		arenaWords  = flag.Int("arena-words", 1<<22, "allocation arena size in words")
		pool        = flag.Int("pool", 8, "scheduler workers (engine threads); shards are partitioned across them")
		drain       = flag.Int("drain", 64, "max operations a worker drains into one group commit")
		queue       = flag.Int("queue", 1024, "per-worker queue depth (backpressure bound)")
		persistProb = flag.Float64("persist-prob", 0.5, "probability an unflushed word survives an injected crash")
		checkpoint  = flag.Duration("checkpoint", 0, "incremental checkpoint cadence (0 disables; each pass bounds the next recovery to the shards dirtied after it)")
		paranoid    = flag.Bool("paranoid", false, "recover with the full index verify + arena reconcile even when a checkpoint watermark would bound it")
		metricsAddr = flag.String("metrics", "", "HTTP listen address for the metrics snapshot (/metrics) and pprof (/debug/pprof/); empty disables")
		metricsLog  = flag.Duration("metrics-log", 0, "periodic one-line metrics log cadence (0 disables)")
		connTimeout = flag.Duration("conn-timeout", 0, "per-connection idle/stall bound: reads and flushes that sit longer than this close the connection (0 disables)")
		maxConns    = flag.Int("max-conns", 0, "client connection limit; excess connections get ERR too many connections (0 disables)")
		replListen  = flag.String("repl-listen", "", "TCP listen address for the replication stream (primary role); empty disables")
		replicaOf   = flag.String("replica-of", "", "primary's -repl-listen address to replicate from (replica role: writes refused until PROMOTE)")
		replSync    = flag.Bool("repl-sync", false, "SYNC waits for a replica's durable acknowledgement (acked writes survive primary loss)")
		replTimeout = flag.Duration("repl-sync-timeout", 5*time.Second, "how long a -repl-sync SYNC waits for the replica's durable ack before failing")
		replLogCap  = flag.Int("repl-log", 4096, "commit groups retained for replica catch-up; replicas that fall further behind resync via snapshot")
	)
	flag.Parse()

	srv, err := newServer(config{
		Shards:          *shards,
		Slots:           *slots,
		HeapWords:       *heapWords,
		ArenaWords:      *arenaWords,
		Pool:            *pool,
		Drain:           *drain,
		Queue:           *queue,
		PersistProb:     *persistProb,
		Paranoid:        *paranoid,
		ConnTimeout:     *connTimeout,
		MaxConns:        *maxConns,
		ReplListen:      *replListen,
		ReplicaOf:       *replicaOf,
		ReplSync:        *replSync,
		ReplSyncTimeout: *replTimeout,
		ReplLogCap:      *replLogCap,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *replListen != "" {
		rl, err := net.Listen("tcp", *replListen)
		if err != nil {
			log.Fatal(err)
		}
		srv.startPrimary(rl)
		log.Printf("craftykv: replication stream on %s", rl.Addr())
	}
	if *replicaOf != "" {
		srv.startReplica(*replicaOf, nil)
		log.Printf("craftykv: replicating from %s (read-only until PROMOTE)", *replicaOf)
	}
	if *checkpoint > 0 {
		srv.startCheckpointer(*checkpoint, make(chan struct{}))
	}
	if *metricsLog > 0 {
		srv.startMetricsLogger(*metricsLog, make(chan struct{}))
	}
	metricsOn := "off"
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		srv.serveMetrics(ml)
		metricsOn = ml.Addr().String()
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("craftykv: engine %q serving on %s", srv.eng.Name(), l.Addr())
	log.Printf("craftykv: config: shards=%d slots=%d heap_words=%d arena_words=%d pool=%d drain=%d queue=%d checkpoint=%s persist_prob=%g paranoid=%t metrics=%s metrics_log=%s",
		*shards, *slots, *heapWords, *arenaWords, *pool, *drain, *queue, *checkpoint, *persistProb, *paranoid, metricsOn, *metricsLog)
	if *metricsAddr != "" {
		log.Printf("craftykv: metrics on http://%s/metrics (pprof under /debug/pprof/)", metricsOn)
	}
	log.Fatal(srv.serve(l))
}

// config sizes a server.
type config struct {
	Shards      int
	Slots       int
	HeapWords   int
	ArenaWords  int
	Pool        int
	Drain       int
	Queue       int
	PersistProb float64
	// Paranoid forces every CRASH recovery onto the full verify + reconcile
	// path even when a checkpoint watermark would bound it.
	Paranoid bool

	// ConnTimeout bounds how long one connection read or flush may sit; 0
	// disables. MaxConns bounds accepted client connections; 0 disables.
	ConnTimeout time.Duration
	MaxConns    int

	// Replication (repl.go): a repl-listen address and/or a primary to
	// replicate from; either one enables the replState. ReplDial is the
	// drills' netfault injection point (nil = plain TCP).
	ReplListen      string
	ReplicaOf       string
	ReplSync        bool
	ReplSyncTimeout time.Duration
	ReplLogCap      int
	ReplDial        func(addr string) (net.Conn, error)
}

// replicated reports whether this config enables replication.
func (c config) replicated() bool { return c.ReplListen != "" || c.ReplicaOf != "" }

// server owns the heap, the engine, the store, and the scheduler: one worker
// goroutine per pool slot, each bound to its own engine thread. CRASH takes
// the write lock (waiting out every worker's in-flight batch, as a power
// failure freezes the machine between transactions), rebuilds the engine
// over the surviving heap, and re-registers the worker threads; queued
// operations then drain against the recovered store.
type server struct {
	cfg    config
	heap   *crafty.Heap
	layout crafty.Layout
	root   crafty.Addr

	// router maps keys to shards; the mapping depends only on the immutable
	// shard count, so it is safe to use without the lock across crashes.
	router *crafty.KV

	workers []*worker

	mu        sync.RWMutex
	eng       *crafty.Engine
	store     *crafty.KV
	threads   []crafty.Thread
	crashSeed int64

	// syncMu serializes SYNC barriers; see server.sync.
	syncMu sync.Mutex

	// recovering gates new connections while a CRASH holds the write lock:
	// they get an immediate, explicit error instead of hanging behind the
	// recovery.
	recovering atomic.Bool

	// obs is the server's metrics block (metrics.go); never nil once
	// newServer returns. connSeq hands each connection a counter stripe.
	obs     *serverMetrics
	connSeq atomic.Uint64

	// repl is the replication state (repl.go); nil unless the config names
	// a repl listener or a primary to follow. crashEpoch counts completed
	// CRASH recoveries so the replica applier can detect one splitting an
	// apply window; conns counts accepted client connections for -max-conns.
	repl       *replState
	crashEpoch atomic.Uint64
	conns      atomic.Int64
}

func newServer(cfg config) (*server, error) {
	if cfg.Pool <= 0 {
		cfg.Pool = 8
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 64
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	heap := crafty.NewHeap(crafty.HeapConfig{
		Words:            cfg.HeapWords,
		PersistLatency:   crafty.NoLatency,
		TrackPersistence: true,
	})
	eng, err := crafty.New(heap, crafty.Config{ArenaWords: cfg.ArenaWords})
	if err != nil {
		return nil, err
	}
	// Validate the pool against the engine's thread capacity up front: the
	// log directory is sized at engine creation, so a pool that exceeds it
	// would otherwise only fail at the first over-limit registration.
	if cfg.Pool > eng.MaxThreads() {
		return nil, fmt.Errorf("craftykv: -pool %d exceeds the engine's thread capacity %d (Config.MaxThreads)",
			cfg.Pool, eng.MaxThreads())
	}
	s := &server{cfg: cfg, heap: heap, layout: eng.Layout(), eng: eng, crashSeed: 1}
	s.registerThreads()
	store, err := crafty.NewKV(eng, s.threads[0], crafty.KVConfig{
		Shards:               cfg.Shards,
		InitialSlotsPerShard: cfg.Slots,
	})
	if err != nil {
		return nil, err
	}
	s.store = store
	s.router = store
	s.root = store.Root()
	// Make the store's creation durable before serving: recovery always
	// rolls back the newest sequence of the least-advanced thread (its
	// write-backs may not have completed), so without this quiesce a crash
	// arriving before any synced traffic could undo the store header
	// transaction itself and recovery would find no store at the root.
	if err := syncThread(s.threads[0], s.root); err != nil {
		return nil, err
	}
	// Create every worker before building the metrics block (their
	// queue-depth gauges close over the queues), and build it before any
	// worker goroutine starts (workers record drained batch sizes).
	for i := 0; i < cfg.Pool; i++ {
		s.workers = append(s.workers, &worker{srv: s, id: i, queue: make(chan task, cfg.Queue)})
	}
	// The replication state must exist before the metrics block (which
	// registers its instruments) and before the workers start (which tap
	// batches into its log).
	if cfg.replicated() {
		s.repl = newReplState(s, cfg)
	}
	s.obs = newServerMetrics(s)
	for _, w := range s.workers {
		go w.run()
	}
	return s, nil
}

// registerThreads (re)registers one engine thread per worker on the current
// engine. Register reuses the persistent log directory slots across engine
// incarnations, so repeated crashes do not leak heap space.
func (s *server) registerThreads() {
	s.threads = make([]crafty.Thread, s.cfg.Pool)
	for i := range s.threads {
		s.threads[i] = s.eng.Register()
	}
}

// syncThread quiesces one engine thread's log, making every transaction it
// has committed rollback-proof (core.Thread.SyncDurable: a drained empty log
// sequence — the direct fsync primitive, no transaction and no conflicts
// with concurrently syncing workers). The marker-transaction fallback covers
// hypothetical engines without SyncDurable; craftykv always runs the Crafty
// engine, which has it.
func syncThread(th crafty.Thread, root crafty.Addr) error {
	if q, ok := th.(interface{ SyncDurable() error }); ok {
		return q.SyncDurable()
	}
	return th.Atomic(func(tx crafty.Tx) error {
		tx.Store(root, tx.Load(root))
		return nil
	})
}

// sync is the scheduler barrier: it hands every worker a barrier task, waits
// for all of them to finish the operations queued ahead of it (the
// rendezvous), releases them to quiesce their own threads' logs
// (syncThread), and waits for the quiesces. The two phases matter: recovery
// rolls back every sequence with ts >= R, where R is the minimum over
// threads of the newest persisted sequence, so every quiesce timestamp must
// postdate every covered commit on every worker — otherwise one worker's
// early marker drags R below another worker's acknowledged write and the
// next crash undoes it. Operations that arrive behind the barrier just
// queue as usual and the barrier never waits on them; syncMu keeps two
// connections' barriers from interleaving their rendezvous (task order can
// differ per queue, which would deadlock the arrival phase).
func (s *server) sync() error {
	return s.syncWith(nil)
}

// syncWith is the barrier with an optional hook run at the fully quiesced
// point: every worker has synced its log and none has resumed, so no
// transaction is in flight and nothing committed can roll back — the
// precondition KV.Checkpoint documents. The hook is skipped (and its error
// slot left nil) if any quiesce failed, since a watermark over an unsynced
// state would be unsound.
func (s *server) syncWith(hook func() error) error {
	// The barrier runs no transaction of its own, so timing it here is
	// off-path; the wait covers the serialization behind syncMu too, which is
	// what a client blocked on SYNC actually experiences.
	t0 := time.Now()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	defer func() {
		s.obs.syncs.Inc(0)
		s.obs.syncWaitNs.ObserveSince(t0)
	}()
	b := &syncBarrier{release: make(chan struct{})}
	b.arrive.Add(len(s.workers))
	b.done.Add(len(s.workers))
	if hook != nil {
		b.resume = make(chan struct{})
		b.quiesced.Add(len(s.workers))
	}
	errs := make([]error, len(s.workers))
	for i, w := range s.workers {
		w.queue <- task{barrier: b, errSlot: &errs[i]}
	}
	b.arrive.Wait()
	close(b.release)
	var hookErr error
	if hook != nil {
		b.quiesced.Wait()
		ok := true
		for _, err := range errs {
			if err != nil {
				ok = false
				break
			}
		}
		if ok {
			hookErr = hook()
		}
		close(b.resume)
	}
	b.done.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return hookErr
}

// checkpoint runs one incremental checkpoint under the barrier's quiesced
// window: verify the shards dirtied since the last checkpoint, coalesce the
// arena, persist the watermark, advance the epoch. The next CRASH's reopen
// then verifies only what was dirtied after this point.
func (s *server) checkpoint() (crafty.KVCheckpointReport, error) {
	var rep crafty.KVCheckpointReport
	err := s.syncWith(func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var err error
		rep, err = s.store.Checkpoint(s.eng)
		return err
	})
	return rep, err
}

// startCheckpointer runs checkpoints on a fixed cadence until stop closes.
// Each pass costs one SYNC barrier plus work proportional to the shards
// dirtied since the previous pass.
func (s *server) startCheckpointer(interval time.Duration, stop chan struct{}) {
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rep, err := s.checkpoint()
				if err != nil {
					log.Printf("craftykv: checkpoint: %v", err)
					continue
				}
				log.Printf("craftykv: checkpoint seq=%d epoch=%d dirty_shards=%d coalesced=%d",
					rep.Seq, rep.Epoch, rep.DirtyShards, rep.Coalesced)
			}
		}
	}()
}

// crash injects a power failure and runs the full recovery flow, replacing
// the engine, store, and worker threads. While it runs, s.recovering gates
// new connections (they get a clear "recovering" error instead of queueing
// behind the write lock), and each recovery phase's wall time is logged.
func (s *server) crash() (rolledBack int, entries uint64, rep crafty.KVReopenReport, err error) {
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()

	s.eng.Close()
	s.crashSeed++
	s.heap.Crash(crafty.NewRandomCrashPolicy(s.crashSeed, s.cfg.PersistProb))
	start := time.Now()
	report, err := crafty.Recover(s.heap, s.layout)
	if err != nil {
		return 0, 0, rep, fmt.Errorf("recover: %w", err)
	}
	rollbackTime := time.Since(start)
	start = time.Now()
	eng, err := crafty.Reopen(s.heap, s.layout, crafty.Config{ArenaWords: s.cfg.ArenaWords})
	if err != nil {
		return 0, 0, rep, fmt.Errorf("reopen engine: %w", err)
	}
	eng.AdvanceClock(report.MaxTimestamp)
	engineTime := time.Since(start)
	start = time.Now()
	store, rep, err := crafty.ReopenKVWith(eng, s.root, crafty.KVReopenOptions{Paranoid: s.cfg.Paranoid})
	if err != nil {
		return 0, 0, rep, fmt.Errorf("reopen kv (index verification): %w", err)
	}
	indexTime := time.Since(start)
	path := "bounded"
	if rep.FullVerify {
		path = "full (" + rep.FallbackReason + ")"
	}
	log.Printf("craftykv: recovery: rollback %v (%d sequences), engine reopen %v, index %v (%s, %d/%d shards verified)",
		rollbackTime, report.SequencesRolledBack, engineTime, indexTime, path, rep.VerifiedShards, rep.Shards)
	s.obs.crashes.Inc(0)
	s.obs.recoveryNs.Observe((rollbackTime + engineTime + indexTime).Nanoseconds())
	// Re-adopt the startup metrics blocks so the engine/store counters keep
	// accumulating across incarnations instead of resetting with each crash.
	eng.AdoptMetrics(s.obs.engM)
	store.AdoptMetrics(s.obs.kvM)
	s.eng = eng
	s.store = store
	s.registerThreads()

	// The reopen already verified the index (all of it, or the dirty shards
	// against the watermark); Len is a cheap read-only transaction over the
	// shard headers.
	entries, err = store.Len(s.threads[0])
	if err != nil {
		return 0, 0, rep, err
	}
	// Replication aftermath (repl.go): bump the crash epoch, and as primary
	// invalidate the group log and sever replicas — streamed groups may be
	// among the rolled-back suffix.
	s.onCrashRecovered()
	return report.SequencesRolledBack, entries, rep, nil
}

func (s *server) serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// A connection arriving mid-recovery gets a clear error instead of
		// hanging behind the crash handler's write lock. Established
		// connections keep their queued work; it drains against the
		// recovered store.
		if s.recovering.Load() {
			go func(conn net.Conn) {
				fmt.Fprintf(conn, "ERR recovering, retry shortly\n")
				conn.Close()
			}(conn)
			continue
		}
		// The accept loop is the only goroutine that increments, so the
		// check-then-add pair cannot race another accept; handle decrements.
		if s.cfg.MaxConns > 0 && s.conns.Load() >= int64(s.cfg.MaxConns) {
			s.obs.connsRefused.Inc(0)
			go func(conn net.Conn) {
				fmt.Fprintf(conn, "ERR too many connections\n")
				conn.Close()
			}(conn)
			continue
		}
		s.conns.Add(1)
		go s.handle(conn)
	}
}

// writeLinef writes one formatted response line.
func writeLinef(out *bufio.Writer, format string, args ...any) {
	fmt.Fprintf(out, format+"\n", args...)
}

// handle runs one connection: the reader parses and submits requests, the
// writer goroutine renders each request's response as it completes — in
// request order, flushing once no further completed response is pending, so
// a pipelined burst costs one write syscall for the whole batch. The writer
// sleeps on one reusable wake-up channel for the whole connection (see
// request.wait), so completing a request allocates nothing.
//
// The protocol is auto-detected from the first byte: a binary client leads
// with the handshake's 0xCF magic (wire.go), which can never begin a text
// command, so everything else runs the line protocol unchanged.
func (s *server) handle(conn net.Conn) {
	defer conn.Close()
	defer s.conns.Add(-1)
	// Each connection gets its own counter stripe so concurrent connections'
	// traffic counters never contend on a cache line.
	stripe := int(s.connSeq.Add(1))
	s.obs.connsTotal.Inc(stripe)
	s.obs.conns.Add(1)
	defer s.obs.conns.Add(-1)
	// The reader size is also the request bound: ReadSlice fails with
	// ErrBufferFull once a newline-free line exceeds it, so a misbehaving
	// client cannot grow one line without limit (binary frames are bounded
	// by the wire reader's limit instead; same maxFrame).
	src := &stampReader{r: conn}
	in := bufio.NewReaderSize(src, maxFrame)
	// The byte counter sits under the bufio.Writer: one add per flush.
	out := bufio.NewWriter(&countWriter{w: conn, c: s.obs.bytesOut, stripe: stripe})

	if d := s.cfg.ConnTimeout; d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	first, err := in.Peek(1)
	if err != nil {
		return
	}
	binary := first[0] == wire.Magic0
	var version byte
	if binary {
		version, err = s.readHandshake(in, stripe, conn)
		if err != nil {
			return
		}
	}
	// The mode is fixed before the writer goroutine starts (and before any
	// request can be pushed), so the writer reads it race-free.
	w := &connWriter{srv: s, out: out}
	if binary {
		w.enc = wire.NewEncoder(out)
	}

	sig := make(chan struct{}, 1)
	pending := make(chan *request, 128)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var burst int64
		for {
			req, ok := w.next(pending)
			if !ok {
				break
			}
			w.reply(req)
			burst++
			if len(pending) == 0 {
				s.obs.bursts.Observe(burst)
				burst = 0
				// A stalled client must not pin this goroutine mid-flush.
				if d := s.cfg.ConnTimeout; d > 0 {
					conn.SetWriteDeadline(time.Now().Add(d))
				}
				if out.Flush() != nil {
					// The connection is gone; keep draining so the reader
					// never blocks on a full pending queue.
					for req := range pending {
						req.wait()
						if req.notify != nil {
							close(req.notify)
						}
						requestPool.Put(req)
					}
					return
				}
			}
			requestPool.Put(req)
		}
		out.Flush()
	}()

	c := &connReader{srv: s, pending: pending, sig: sig, src: src, stripe: stripe}
	if binary {
		hello := newRequest(cmdHello)
		hello.n = uint64(version)
		c.push(hello)
		s.serveBinary(conn, in, c)
	} else {
		s.serveText(conn, in, c)
	}
	close(pending)
	writerWG.Wait()
}

// serveText is the line-protocol read loop.
func (s *server) serveText(conn net.Conn, in *bufio.Reader, c *connReader) {
	for {
		// -conn-timeout is an idle/stall bound: a client that sends nothing
		// for a whole interval is disconnected rather than holding the
		// reader goroutine (and its fd) forever.
		if d := s.cfg.ConnTimeout; d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		}
		raw, err := in.ReadSlice('\n')
		s.obs.bytesIn.Add(c.stripe, uint64(len(raw)))
		if err == bufio.ErrBufferFull {
			// Oversized request: same typed refusal as an oversized binary
			// frame. Drain the rest of the line so the stream stays framed
			// and the connection survives the mistake.
			c.push(inlineRequest(tooLargeReply))
			for err == bufio.ErrBufferFull {
				raw, err = in.ReadSlice('\n')
				s.obs.bytesIn.Add(c.stripe, uint64(len(raw)))
			}
			if err != nil {
				return
			}
			continue
		}
		line := trimLine(raw)
		if len(line) != 0 {
			s.obs.cmds.Inc(c.stripe)
			if !c.dispatch(line) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// trimLine strips the trailing newline (and any \r) from a raw line; the
// result aliases the connection read buffer, valid until the next ReadSlice.
func trimLine(raw []byte) []byte {
	for len(raw) > 0 && (raw[len(raw)-1] == '\n' || raw[len(raw)-1] == '\r') {
		raw = raw[:len(raw)-1]
	}
	return raw
}

// connWriter is one connection's render state, owned by its writer
// goroutine.
type connWriter struct {
	srv *server
	out *bufio.Writer
	enc *wire.Encoder // nil for the text protocol

	// now is the writer's clock, read once per wake-up — from an idle
	// pending queue or from a completion kick — rather than once per
	// request: every reply rendered between two wake-ups is written at
	// about the same moment.
	now time.Time
}

// next takes the next request in connection order, reading the clock only
// when the queue was empty and the writer had to sleep.
func (w *connWriter) next(pending chan *request) (*request, bool) {
	select {
	case req, ok := <-pending:
		return req, ok
	default:
	}
	req, ok := <-pending
	w.now = time.Now()
	return req, ok
}

// reply waits for req to complete, renders its response, records its
// latency, and releases a waitPrior barrier riding on it.
func (w *connWriter) reply(req *request) {
	if req.remaining.Load() != 0 {
		req.wait()
		w.now = time.Now()
	}
	if w.enc != nil {
		renderWire(w.enc, req)
	} else {
		render(w.out, req)
	}
	// Arrival→reply latency for scheduler-routed requests, stamped strictly
	// outside any transaction: t0 when the request's bytes came off the
	// socket, now at the wake-up after which its reply was written. A request
	// read after the last wake-up refreshes the clock, so no sample is
	// negative. Inline replies never hit the scheduler.
	if req.cmd != cmdInline {
		if req.t0.After(w.now) {
			w.now = time.Now()
		}
		w.srv.obs.opLatency.Observe(int64(w.now.Sub(req.t0)))
	}
	if req.notify != nil {
		close(req.notify)
	}
}

// connReader is one connection's parse-and-submit state.
type connReader struct {
	srv     *server
	pending chan *request
	sig     chan struct{} // the writer's wake-up channel
	src     *stampReader  // arrival stamps of the socket reads
	stripe  int
}

// stampReader sits under the connection's bufio.Reader and records when
// each socket read returned data: one clock read per read, however many
// requests the read delivered. Only the reader goroutine touches it.
type stampReader struct {
	r  io.Reader
	at time.Time
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 {
		s.at = time.Now()
	}
	return n, err
}

// push submits a request to the scheduler and appends it to the
// connection's response queue, pointing it at the writer's wake-up channel
// and stamping it with the arrival time of the read that delivered it.
// Pre-rendered errors (usage mistakes, unknown commands, failed control
// commands) are counted here — the one spot every error-shaped inline reply
// passes through.
func (c *connReader) push(req *request) {
	if req.cmd == cmdInline && strings.HasPrefix(req.text, "ERR") {
		c.srv.obs.cmdErrs.Inc(c.stripe)
	}
	req.sig = c.sig
	req.t0 = c.src.at
	c.srv.submit(req)
	c.pending <- req
}

// waitPrior blocks until every previously submitted request of this
// connection has completed and rendered, by riding a no-output marker
// through the response queue: the writer processes requests in order, so
// reaching the marker means everything before it finished. Commands whose
// effect or reply must observe the connection's earlier operations across
// all shards (LEN, STATS, CRASH, QUIT) use it; same-key ordering needs no
// barrier, since a key's operations share one worker queue.
func (c *connReader) waitPrior() {
	marker := inlineRequest("") // starts complete: the writer never waits on it
	marker.notify = make(chan struct{})
	notify := marker.notify
	c.pending <- marker
	<-notify
}

// cutSpace splits b at its first space — bytes.Cut without the import churn;
// found reports whether a space existed (SplitN's "how many parts" signal).
func cutSpace(b []byte) (before, after []byte, found bool) {
	for i := 0; i < len(b); i++ {
		if b[i] == ' ' {
			return b[:i], b[i+1:], true
		}
	}
	return b, nil, false
}

// fields iterates whitespace-separated tokens of a line without allocating —
// the index-based replacement for the strings.Fields re-splits the M* arms
// used to do per request. Tokens alias the line.
type fields struct {
	b []byte
	i int
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// next returns the next token, or ok=false when the line is exhausted.
func (f *fields) next() (tok []byte, ok bool) {
	for f.i < len(f.b) && isSpaceByte(f.b[f.i]) {
		f.i++
	}
	if f.i >= len(f.b) {
		return nil, false
	}
	start := f.i
	for f.i < len(f.b) && !isSpaceByte(f.b[f.i]) {
		f.i++
	}
	return f.b[start:f.i:f.i], true
}

// count returns how many tokens remain without consuming them.
func (f *fields) count() int {
	save, n := f.i, 0
	for {
		if _, ok := f.next(); !ok {
			break
		}
		n++
	}
	f.i = save
	return n
}

// cmdIs matches tok against an uppercase command name, ASCII
// case-insensitively, without the ToUpper copy the string path paid.
func cmdIs(tok []byte, name string) bool {
	if len(tok) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		b := tok[i]
		if b >= 'a' && b <= 'z' {
			b -= 'a' - 'A'
		}
		if b != name[i] {
			return false
		}
	}
	return true
}

// dispatch handles one request line; it returns false when the connection
// should close. The line aliases the connection read buffer — token bytes
// are copied into the request at addOpBytes, never retained.
func (c *connReader) dispatch(line []byte) bool {
	s := c.srv
	cmd, rest, hasArgs := cutSpace(line)
	// Replica role: client mutations are refused until PROMOTE (the
	// replication applier submits its work directly, not through here).
	switch {
	case cmdIs(cmd, "PUT"):
		if s.writesRefused() {
			c.push(inlineRequest(replicaRefusal))
			return true
		}
		key, val, ok := cutSpace(rest)
		if !hasArgs || !ok {
			c.push(inlineRequest("ERR usage: PUT <key> <value>"))
			return true
		}
		req := newRequest(cmdPut)
		req.addOpBytes(crafty.KVPut, key, val)
		c.push(req)
	case cmdIs(cmd, "GET"):
		key, _, more := cutSpace(rest)
		if !hasArgs || more {
			c.push(inlineRequest("ERR usage: GET <key>"))
			return true
		}
		req := newRequest(cmdGet)
		req.addOpBytes(crafty.KVGet, key, nil)
		c.push(req)
	case cmdIs(cmd, "DEL"):
		if s.writesRefused() {
			c.push(inlineRequest(replicaRefusal))
			return true
		}
		key, _, more := cutSpace(rest)
		if !hasArgs || more {
			c.push(inlineRequest("ERR usage: DEL <key>"))
			return true
		}
		req := newRequest(cmdDel)
		req.addOpBytes(crafty.KVDelete, key, nil)
		c.push(req)
	case cmdIs(cmd, "MGET"):
		// Validate the parsed key list, not the raw token count: "MGET "
		// splits into two tokens but carries no keys, and the protocol owes
		// the client exactly one line per key or an error.
		f := fields{b: rest}
		if f.count() == 0 {
			c.push(inlineRequest("ERR usage: MGET <key> [<key> ...]"))
			return true
		}
		req := newRequest(cmdMGet)
		for k, ok := f.next(); ok; k, ok = f.next() {
			req.addOpBytes(crafty.KVGet, k, nil)
		}
		c.push(req)
	case cmdIs(cmd, "MPUT"):
		if s.writesRefused() {
			c.push(inlineRequest(replicaRefusal))
			return true
		}
		f := fields{b: rest}
		if n := f.count(); n == 0 || n%2 != 0 {
			c.push(inlineRequest("ERR usage: MPUT <key> <value> [<key> <value> ...]"))
			return true
		}
		req := newRequest(cmdMPut)
		for {
			k, ok := f.next()
			if !ok {
				break
			}
			v, _ := f.next() // count is even, so the pair exists
			req.addOpBytes(crafty.KVPut, k, v)
		}
		c.push(req)
	case cmdIs(cmd, "MDEL"):
		if s.writesRefused() {
			c.push(inlineRequest(replicaRefusal))
			return true
		}
		f := fields{b: rest}
		if f.count() == 0 {
			c.push(inlineRequest("ERR usage: MDEL <key> [<key> ...]"))
			return true
		}
		req := newRequest(cmdMDel)
		for k, ok := f.next(); ok; k, ok = f.next() {
			req.addOpBytes(crafty.KVDelete, k, nil)
		}
		c.push(req)
	case cmdIs(cmd, "LEN"):
		c.waitPrior()
		c.push(newRequest(cmdLen))
	case cmdIs(cmd, "STATS"):
		c.waitPrior()
		s.mu.RLock()
		ast := s.eng.Arena().Stats()
		s.mu.RUnlock()
		c.push(inlineRequest(fmt.Sprintf(
			"STATS live_blocks=%d live_words=%d free_blocks=%d free_words=%d used_words=%d capacity_words=%d leaked_words=%d",
			ast.Live, ast.LiveWords, ast.FreeBlocks, ast.FreeWords, ast.UsedWords, ast.DataWords,
			ast.UsedWords-ast.LiveWords-ast.FreeWords)))
	case cmdIs(cmd, "INFO"):
		// The full metrics snapshot, as "name value" lines behind an
		// "INFO <n>" count header. waitPrior orders it after this
		// connection's earlier operations, so counters reflect them; STATS
		// stays as the arena-only legacy view.
		c.waitPrior()
		c.push(inlineRequest(s.infoText()))
	case cmdIs(cmd, "SYNC"):
		// The barrier covers everything already queued — including this
		// connection's earlier operations — so no waitPrior is needed. In
		// -repl-sync mode the barrier additionally waits for the replica's
		// durable acknowledgement (repl.go).
		if err := s.replicatedSync(); err != nil {
			c.push(inlineRequest(fmt.Sprintf("ERR %v", err)))
			return true
		}
		c.push(inlineRequest("OK"))
	case cmdIs(cmd, "CHECKPOINT"):
		// Like SYNC, the barrier covers everything already queued.
		rep, err := s.checkpoint()
		if err != nil {
			c.push(inlineRequest(fmt.Sprintf("ERR %v", err)))
			return true
		}
		c.push(inlineRequest(fmt.Sprintf("OK seq=%d epoch=%d dirty_shards=%d entries=%d coalesced=%d",
			rep.Seq, rep.Epoch, rep.DirtyShards, rep.Entries, rep.Coalesced)))
	case cmdIs(cmd, "CRASH"):
		c.waitPrior()
		rolledBack, entries, rep, err := s.crash()
		if err != nil {
			c.push(inlineRequest(fmt.Sprintf("ERR %v", err)))
			return true
		}
		c.push(inlineRequest(fmt.Sprintf("OK rolled_back=%d entries=%d verified_shards=%d shards=%d full_verify=%t",
			rolledBack, entries, rep.VerifiedShards, rep.Shards, rep.FullVerify)))
	case cmdIs(cmd, "PROMOTE"):
		// Failover: stop following the primary, checkpoint at a quiesced
		// point, start accepting writes under a fresh generation. waitPrior
		// orders it after this connection's earlier (read) traffic.
		c.waitPrior()
		reply, err := s.promote()
		if err != nil {
			c.push(inlineRequest(fmt.Sprintf("ERR %v", err)))
			return true
		}
		c.push(inlineRequest(reply))
	case cmdIs(cmd, "REPLINFO"):
		c.waitPrior()
		c.push(inlineRequest(s.replInfo()))
	case cmdIs(cmd, "QUIT"):
		c.waitPrior()
		c.push(inlineRequest("BYE"))
		return false
	default:
		c.push(inlineRequest(fmt.Sprintf("ERR unknown command %q", cmd)))
	}
	return true
}
