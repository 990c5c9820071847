package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"crafty/internal/workloads/ycsb"
)

// Load shape of the served workloads: one client process, two connections,
// each a closed loop with 64 pipelined requests in flight.
const (
	loadConns = 2
	loadDepth = 64
)

// Warm-up: traffic runs until the store's background rehash is idle, and at
// least minWarmOps operations have completed, before any window opens.
const (
	minWarmOps  = 20_000
	warmPoll    = 25 * time.Millisecond
	warmTimeout = 60 * time.Second
	// rampDelay lets a restarted closed loop fill its pipelines before a
	// window opens.
	rampDelay = 200 * time.Millisecond
)

// keyBlockWords is the arena size, in words, of one entry block holding a
// key of keyLen and a value of valLen bytes (header word, then key and value
// padded to words) — the layout internal/kv documents.
func keyBlockWords(keyLen, valLen int) int { return 1 + (keyLen+7)/8 + (valLen+7)/8 }

// servedSession is one server process under one workload: its preloaded
// keyspace, its connections and their op streams.
type servedSession struct {
	spec    servedSpec
	srv     *serverProc
	ctl     *ctlConn
	ks      *keyspace
	base    time.Time
	conns   []net.Conn
	polls   []*pollReader
	codecs  []codec
	streams []*stream
}

// startSession starts a server, preloads every key at version 0, checks the
// arena headroom, and opens the load connections. The caller closes it.
func startSession(serverBin string, spec servedSpec, zipf *ycsb.Zipf, seed int64) (*servedSession, error) {
	srv, err := startServer(serverBin)
	if err != nil {
		return nil, err
	}
	s := &servedSession{spec: spec, srv: srv, ks: newKeyspace(spec), base: time.Now()}
	if err := s.open(zipf, seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *servedSession) open(zipf *ycsb.Zipf, seed int64) error {
	var err error
	if s.ctl, err = dialCtl(s.srv.addr); err != nil {
		return err
	}
	if err := s.preload(); err != nil {
		return err
	}
	if err := s.checkHeadroom(); err != nil {
		return err
	}
	for i := 0; i < loadConns; i++ {
		conn, pr, c, err := dialLoad(s.srv.addr, s.spec.binary)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, conn)
		s.polls = append(s.polls, pr)
		s.codecs = append(s.codecs, c)
		s.streams = append(s.streams, newStream(s.spec, zipf, seed, i, loadConns))
	}
	return nil
}

// close closes the connections, then kills and reaps the server.
func (s *servedSession) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	s.srv.stop()
}

// preloadBatch is the number of keys per preload MPUT.
const preloadBatch = 100

// preload writes every key at version 0 with pipelined MPUTs. The record
// count is a multiple of preloadBatch (run checks it).
func (s *servedSession) preload() error {
	ks := s.ks
	var val []byte
	var bad error
	err := s.ctl.pipeline(len(ks.keys)/preloadBatch, 16, 1, func(i int, w *bufio.Writer) {
		w.WriteString("MPUT")
		for k := i * preloadBatch; k < (i+1)*preloadBatch; k++ {
			val = ks.appendValue(val[:0], uint32(k), 0)
			w.WriteByte(' ')
			w.Write(ks.keys[k])
			w.WriteByte(' ')
			w.Write(val)
		}
	}, func(i int, lines []string) {
		if want := fmt.Sprintf("OK %d", preloadBatch); lines[0] != want && bad == nil {
			bad = fmt.Errorf("preload MPUT %d answered %q, want %q", i, lines[0], want)
		}
	})
	return errors.Join(err, bad)
}

// checkHeadroom refuses to run when the arena left after the preload
// cannot absorb the workload's churn. An exhausted arena panics inside the
// server's transaction (alloc: arena exhausted) and kills the process, so
// the guard turns that into a clear refusal up front.
func (s *servedSession) checkHeadroom() error {
	snap, err := s.ctl.info()
	if err != nil {
		return err
	}
	return headroom(snap, len(s.ks.keys), len(s.ks.keys[0]), s.spec.maxVal)
}

// headroom checks an INFO snapshot's free arena words against the churn of
// rewriting every key once at the largest value size without any reuse of
// freed blocks.
func headroom(snap snapshot, keys, keyLen, maxVal int) error {
	capacity, used := snap["arena.capacity_words"], snap["arena.used_words"]
	need := int64(keys * keyBlockWords(keyLen, maxVal))
	if capacity == 0 || capacity-used < need {
		return fmt.Errorf("arena headroom %d words after preload (capacity %d, used %d) cannot cover %d words of churn; refusing to start",
			capacity-used, capacity, used, need)
	}
	return nil
}

// phaseResult is what one window measured.
type phaseResult struct {
	setupEnd      time.Time // when warm-up finished (warm phases only)
	setupRSS      float64   // the server's VmHWM then, MiB
	setupRehashes int64     // shard rehashes completed by then
	secs          float64
	ops           float64 // completions inside the window
	getNs, putNs  []int64 // latency samples
	meanLatNs     float64
	putBytes      float64
	before, after snapshot
	serverCPU     float64 // seconds inside the window
	stealShare    float64 // share of the machine's CPU time stolen by its host inside the window
	attempted     int64
	failed        int64
	failures      []string
	tracers       []*tracer
}

// phase runs the closed loops, optionally warms up first, and measures one
// window of length d. Spans are recorded when traced.
func (s *servedSession) phase(d time.Duration, warm, traced bool) (phaseResult, error) {
	var res phaseResult
	// A server that hangs must not hang the benchmark: the load connections
	// give up once the phase has overrun every bound it has.
	deadline := time.Now().Add(warmTimeout + d + ctlTimeout)
	for i, c := range s.conns {
		if err := c.SetWriteDeadline(deadline); err != nil {
			return res, err
		}
		s.polls[i].deadline = deadline
	}
	win := newWindow()
	win.traced.Store(traced)
	lcs := make([]*loadConn, len(s.codecs))
	errs := make([]error, len(lcs))
	var wg sync.WaitGroup
	for i := range lcs {
		lcs[i] = newLoadConn(i, s.codecs[i], s.ks, s.streams[i], win, newTracer(s.base), loadDepth, sampleCap(d.Seconds(), len(lcs)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = lcs[i].run()
		}(i)
	}
	measureErr := s.measure(&res, win, lcs, d, warm)
	win.stop.Store(true)
	wg.Wait()
	for _, lc := range lcs {
		res.getNs = append(res.getNs, lc.getNs...)
		res.putNs = append(res.putNs, lc.putNs...)
		res.ops += float64(lc.windowOps)
		res.putBytes += float64(lc.putBytes)
		res.attempted += lc.done.Load()
		res.failed += lc.failed
		res.failures = append(res.failures, lc.firstFailures...)
		res.tracers = append(res.tracers, lc.tr)
	}
	var sum float64
	for _, xs := range [][]int64{res.getNs, res.putNs} {
		for _, ns := range xs {
			sum += float64(ns)
		}
	}
	res.meanLatNs = ratio(sum, float64(len(res.getNs)+len(res.putNs)))
	if err := errors.Join(append(errs, measureErr)...); err != nil {
		return res, errors.Join(err, s.srv.alive())
	}
	return res, nil
}

// measure is the controller side of a phase: warm up (or ramp), then read
// the server's instruments and CPU time around a window of length d.
func (s *servedSession) measure(res *phaseResult, win *window, lcs []*loadConn, d time.Duration, warm bool) error {
	if warm {
		snap, err := s.warmUp(lcs)
		if err != nil {
			return err
		}
		res.setupEnd = time.Now()
		res.setupRehashes = snap["kv.rehash.completed"]
		// The server's peak after a fixed amount of work. Later in the run
		// the peak tracks how much garbage accumulated before its next
		// collection, which follows throughput rather than the footprint.
		if res.setupRSS, err = peakRSSMB(fmt.Sprint(s.srv.cmd.Process.Pid)); err != nil {
			return err
		}
	} else {
		time.Sleep(rampDelay)
	}
	pid := s.srv.cmd.Process.Pid
	var err error
	if res.before, err = s.ctl.info(); err != nil {
		return err
	}
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return err
	}
	steal := startSteal()
	t0 := time.Now()
	win.start.Store(int64(t0.Sub(s.base)))
	time.Sleep(d)
	t1 := time.Now()
	win.end.Store(int64(t1.Sub(s.base)))
	res.stealShare = steal.share()
	res.secs = t1.Sub(t0).Seconds()
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return err
	}
	res.serverCPU = cpu1 - cpu0
	res.after, err = s.ctl.info()
	return err
}

// warmUp waits until the store's incremental rehash is idle — no shard
// zeroing or migrating, and the migration counter no longer moving — and
// the loops have completed at least minWarmOps operations. It returns the
// last instrument snapshot.
func (s *servedSession) warmUp(lcs []*loadConn) (snapshot, error) {
	deadline := time.Now().Add(warmTimeout)
	prev := int64(-1)
	for {
		time.Sleep(warmPoll)
		snap, err := s.ctl.info()
		if err != nil {
			return nil, err
		}
		var done int64
		for _, lc := range lcs {
			done += lc.done.Load()
		}
		moved := snap["kv.rehash.migrate_batches"]
		if snap["kv.rehash.zeroing_shards"] == 0 && snap["kv.rehash.migrating_shards"] == 0 &&
			moved == prev && done >= minWarmOps {
			return snap, nil
		}
		prev = moved
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("warm-up: rehash still active after %v (zeroing %d, migrating %d shards)",
				warmTimeout, snap["kv.rehash.zeroing_shards"], snap["kv.rehash.migrating_shards"])
		}
		if err := s.srv.alive(); err != nil {
			return nil, err
		}
	}
}

// crashResult is what the SYNC, CRASH and read-back sequence observed.
type crashResult struct {
	recoveryS      float64 // CRASH sent to OK received, as the client sees it
	rolledBack     float64
	verifiedShards float64
	before, after  snapshot
	attempted      int64
	failed         int64
	failures       []string
}

// crashAndVerify makes every acknowledged write durable with SYNC, injects
// a power failure with CRASH, and reads every key back: each must hold its
// last acknowledged value. Call it only while no load connection runs.
func (s *servedSession) crashAndVerify() (crashResult, error) {
	var cr crashResult
	if reply, err := s.ctl.do("SYNC"); err != nil || reply != "OK" {
		return cr, fmt.Errorf("SYNC answered %q: %v", reply, err)
	}
	var err error
	if cr.before, err = s.ctl.info(); err != nil {
		return cr, err
	}
	t0 := time.Now()
	reply, err := s.ctl.do("CRASH")
	cr.recoveryS = time.Since(t0).Seconds()
	if err != nil {
		return cr, errors.Join(err, s.srv.alive())
	}
	fields, err := parseCrashReply(reply)
	if err != nil {
		return cr, err
	}
	cr.rolledBack, cr.verifiedShards = fields["rolled_back"], fields["verified_shards"]
	if fields["entries"] != float64(len(s.ks.keys)) {
		cr.failed++
		cr.failures = append(cr.failures, fmt.Sprintf("after CRASH the store holds %v keys, want %d", fields["entries"], len(s.ks.keys)))
	}
	if cr.after, err = s.ctl.info(); err != nil {
		return cr, err
	}
	ks := s.ks
	var want []byte
	err = s.ctl.pipeline(len(ks.keys)/preloadBatch, 16, preloadBatch, func(i int, w *bufio.Writer) {
		w.WriteString("MGET")
		for k := i * preloadBatch; k < (i+1)*preloadBatch; k++ {
			w.WriteByte(' ')
			w.Write(ks.keys[k])
		}
	}, func(i int, lines []string) {
		for j, line := range lines {
			k := uint32(i*preloadBatch + j)
			want = append(append(want[:0], "VAL "...), ks.appendValue(nil, k, ks.acked[k])...)
			cr.attempted++
			if line != string(want) {
				cr.failed++
				if len(cr.failures) < 5 {
					cr.failures = append(cr.failures, fmt.Sprintf("after CRASH %s reads %q, want acknowledged version %d", ks.keys[k], line, ks.acked[k]))
				}
			}
		}
	})
	return cr, err
}

// parseCrashReply parses "OK key=value ..." into numbers (booleans as 0/1).
func parseCrashReply(reply string) (map[string]float64, error) {
	rest, ok := strings.CutPrefix(reply, "OK ")
	if !ok {
		return nil, fmt.Errorf("CRASH answered %q", reply)
	}
	out := map[string]float64{}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("CRASH reply field %q", f)
		}
		switch v {
		case "true":
			out[k] = 1
		case "false":
			out[k] = 0
		default:
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("CRASH reply field %q: %w", f, err)
			}
			out[k] = x
		}
	}
	return out, nil
}
