// Request completion: the allocation-free wake-up path (one reusable signal
// per connection) and the ordering guarantee it must keep when a
// connection's requests complete out of order across workers.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"crafty"
	"crafty/internal/wire"
)

// TestRequestPathAllocs pins a single-key request's steady-state cost at
// zero allocations through the whole in-process path: dispatch → submit →
// worker group commit and completion → writer wake-up → render, for both a
// text GET line and a binary GET frame. Only the socket is left out.
func TestRequestPathAllocs(t *testing.T) {
	srv, err := newServer(config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        2,
		PersistProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pending := make(chan *request, 1)
	c := &connReader{srv: srv, pending: pending, sig: make(chan struct{}, 1),
		src: &stampReader{at: time.Now()}, stripe: 1}
	var sink bytes.Buffer
	out := bufio.NewWriter(&sink)
	textW := &connWriter{srv: srv, out: out}
	binW := &connWriter{srv: srv, out: out, enc: wire.NewEncoder(out)}
	// serve is one request's trip as handle runs it, the socket aside.
	serve := func(w *connWriter, dispatch func()) {
		sink.Reset()
		dispatch()
		req, _ := w.next(pending)
		w.reply(req)
		requestPool.Put(req)
		out.Flush()
	}

	serve(textW, func() { c.dispatch([]byte("PUT alloc-key alloc-value")) })
	if got := sink.String(); got != "OK\n" {
		t.Fatalf("PUT reply %q", got)
	}
	get := []byte("GET alloc-key")
	text := func() { serve(textW, func() { c.dispatch(get) }) }
	text()
	if got := sink.String(); got != "VAL alloc-value\n" {
		t.Fatalf("text GET reply %q", got)
	}

	// Frame a binary GET once; dispatchFrame copies out of the payload, so
	// the same bytes serve every iteration.
	var frame bytes.Buffer
	fw := bufio.NewWriter(&frame)
	if err := wire.NewEncoder(fw).Get([]byte("alloc-key")); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	typ, payload, err := wire.NewReader(bufio.NewReader(&frame), maxFrame).Next()
	if err != nil {
		t.Fatal(err)
	}
	var scratch []crafty.KVOp
	binary := func() { serve(binW, func() { c.dispatchFrame(typ, payload, &scratch) }) }
	binary()
	rt, rp, err := wire.NewReader(bufio.NewReader(bytes.NewReader(sink.Bytes())), maxFrame).Next()
	if err != nil || rt != wire.TVal || string(rp) != "alloc-value" {
		t.Fatalf("binary GET reply: type %v payload %q err %v", rt, rp, err)
	}

	// Warm the request pool, the result slots' value buffers and every
	// worker's Apply scratch before counting.
	for i := 0; i < 100; i++ {
		text()
		binary()
	}
	if raceEnabled {
		t.Log("race detector on: path exercised, allocation pin skipped")
		return
	}
	if a := testing.AllocsPerRun(500, text); a != 0 {
		t.Errorf("text GET allocates %v per request, want 0", a)
	}
	if a := testing.AllocsPerRun(500, binary); a != 0 {
		t.Errorf("binary GET allocates %v per request, want 0", a)
	}
}

// TestOutOfOrderCompletionKeepsReplyOrder pipelines one burst whose first
// request is stuck on a parked worker while every later one completes on
// the other worker — more requests in flight than the 128-slot response
// queue holds — with a LEN and a SYNC mid-burst. Replies must come back in
// request order regardless of which completion kicked the writer.
func TestOutOfOrderCompletionKeepsReplyOrder(t *testing.T) {
	srv, err := newServer(config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        2,
		PersistProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.serve(l)

	workerOf := func(k string) int { return srv.router.ShardOf([]byte(k)) % len(srv.workers) }
	var slow string
	var fast []string
	for i := 0; len(fast) < 200 || slow == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if workerOf(k) == 0 {
			if slow == "" {
				slow = k
			}
		} else if len(fast) < 200 {
			fast = append(fast, k)
		}
	}

	// Park worker 0 on a barrier task of its own (the first half of the
	// SYNC rendezvous), so the slow key's PUT cannot complete until release.
	park := &syncBarrier{release: make(chan struct{})}
	park.arrive.Add(1)
	park.done.Add(1)
	srv.workers[0].queue <- task{barrier: park}
	park.arrive.Wait()

	var burst strings.Builder
	var want []string
	send := func(req, reply string) {
		burst.WriteString(req + "\n")
		want = append(want, reply)
	}
	send("PUT "+slow+" slow-value", "OK")
	for i, k := range fast[:150] {
		send(fmt.Sprintf("PUT %s v%d", k, i), "OK")
	}
	send("LEN", "LEN 151")
	for i, k := range fast[:40] {
		send("GET "+k, fmt.Sprintf("VAL v%d", i))
	}
	send("SYNC", "OK")
	for _, k := range fast[150:] {
		send("GET "+k, "NIL")
	}
	send("GET "+slow, "VAL slow-value")
	send("QUIT", "BYE")

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go conn.Write([]byte(burst.String()))

	lines := make(chan string, len(want))
	go func() {
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- strings.TrimRight(line, "\r\n")
		}
	}()

	// Wait until worker 1 has completed more than 128 of the later requests
	// (the drained-batch sum counts the park task too) while the first one
	// is still stuck: the writer must be holding all of them back.
	deadline := time.Now().Add(10 * time.Second)
	for srv.obs.drainBatch.Snapshot().Sum < 1+129 {
		if time.Now().After(deadline) {
			t.Fatalf("worker 1 drained only %d tasks", srv.obs.drainBatch.Snapshot().Sum)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case line := <-lines:
		t.Fatalf("reply %q arrived before the first request completed", line)
	default:
	}
	close(park.release)

	for i, w := range want {
		select {
		case got, ok := <-lines:
			if !ok {
				t.Fatalf("connection closed after %d of %d replies", i, len(want))
			}
			if got != w {
				t.Fatalf("reply %d: got %q, want %q", i, got, w)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at reply %d of %d", i, len(want))
		}
	}
}
