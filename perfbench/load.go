package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"crafty/internal/wire"
)

// Reply kinds, common to both protocols.
const (
	replyVal uint8 = iota
	replyNil
	replyOK
	replyErr
)

// codec speaks one protocol on a load connection.
type codec interface {
	writeGet(key []byte) error
	writePut(key, val []byte) error
	flush() error
	// readReply reads one reply; the payload (a value or an error text)
	// aliases the read buffer until the next call.
	readReply() (kind uint8, payload []byte, err error)
	// awaitReply blocks until at least one reply byte is buffered.
	awaitReply() error
	buffered() int
}

// textCodec is the line protocol.
type textCodec struct {
	r *bufio.Reader
	w *bufio.Writer
}

func (c *textCodec) writeGet(key []byte) error {
	c.w.WriteString("GET ")
	c.w.Write(key)
	return c.w.WriteByte('\n')
}

func (c *textCodec) writePut(key, val []byte) error {
	c.w.WriteString("PUT ")
	c.w.Write(key)
	c.w.WriteByte(' ')
	c.w.Write(val)
	return c.w.WriteByte('\n')
}

func (c *textCodec) flush() error      { return c.w.Flush() }
func (c *textCodec) buffered() int     { return c.r.Buffered() }
func (c *textCodec) awaitReply() error { _, err := c.r.Peek(1); return err }

func (c *textCodec) readReply() (uint8, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	line = bytes.TrimRight(line, "\r\n")
	switch {
	case bytes.HasPrefix(line, []byte("VAL ")):
		return replyVal, line[4:], nil
	case bytes.Equal(line, []byte("NIL")):
		return replyNil, nil, nil
	case bytes.Equal(line, []byte("OK")):
		return replyOK, nil, nil
	}
	return replyErr, line, nil
}

// binCodec is the binary protocol, through the same internal/wire Encoder
// and Reader the server uses.
type binCodec struct {
	r   *bufio.Reader
	w   *bufio.Writer
	enc *wire.Encoder
	fr  *wire.Reader
}

func (c *binCodec) writeGet(key []byte) error      { return c.enc.Get(key) }
func (c *binCodec) writePut(key, val []byte) error { return c.enc.Put(key, val) }
func (c *binCodec) flush() error                   { return c.w.Flush() }
func (c *binCodec) buffered() int                  { return c.r.Buffered() }
func (c *binCodec) awaitReply() error              { _, err := c.r.Peek(1); return err }

func (c *binCodec) readReply() (uint8, []byte, error) {
	typ, payload, err := c.fr.Next()
	if err != nil {
		return 0, nil, err
	}
	switch typ {
	case wire.TVal:
		return replyVal, payload, nil
	case wire.TNil:
		return replyNil, nil, nil
	case wire.TOK:
		return replyOK, nil, nil
	}
	return replyErr, fmt.Appendf(nil, "%v reply %q", typ, payload), nil
}

// pollReader reads a TCP connection without ever sleeping in the kernel:
// each Read retries a non-blocking read, yielding to the process's other
// goroutines between attempts, until bytes arrive or the deadline passes.
// The benchmark runs on a virtual machine whose host is shared. A client
// that blocks lets its virtual CPU halt, and waking a halted virtual CPU
// waits for the host to schedule it, which on a busy host takes longer
// than the server needs to drain the 128 requests in flight. The server
// then idles, and throughput measured the neighbours, not the server.
// Polling keeps the client's CPU running; it costs the client its CPU,
// which it has to itself (one of two, GOMAXPROCS=1).
type pollReader struct {
	rc       syscall.RawConn
	deadline time.Time
}

func newPollReader(conn net.Conn) (*pollReader, error) {
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		return nil, err
	}
	return &pollReader{rc: rc, deadline: time.Now().Add(ctlTimeout)}, nil
}

func (p *pollReader) Read(b []byte) (int, error) {
	for {
		var n int
		var rerr error
		err := p.rc.Read(func(fd uintptr) bool {
			n, rerr = syscall.Read(int(fd), b)
			return true // one attempt; never park in the netpoller
		})
		switch {
		case err != nil:
			return 0, err
		case rerr == syscall.EAGAIN || rerr == syscall.EINTR:
			if time.Now().After(p.deadline) {
				return 0, os.ErrDeadlineExceeded
			}
			runtime.Gosched()
		case rerr != nil:
			return 0, rerr
		case n == 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
}

// dialLoad opens one load connection in the workload's protocol; a binary
// connection completes the handshake first.
func dialLoad(addr string, binary bool) (net.Conn, *pollReader, codec, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	pr, err := newPollReader(conn)
	if err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	r := bufio.NewReaderSize(pr, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	if !binary {
		return conn, pr, &textCodec{r: r, w: w}, nil
	}
	if _, err := conn.Write(wire.AppendHandshake(nil, wire.Version)); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	var ack [wire.HandshakeLen]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("handshake: %w", err)
	}
	if _, err := wire.ParseHandshake(ack[:]); err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	return conn, pr, &binCodec{r: r, w: w, enc: wire.NewEncoder(w), fr: wire.NewReader(r, 0)}, nil
}

// window is the measured interval, shared by the controller (which sets it)
// and the load connections (which classify each completion by it). Times are
// nanoseconds since the run's base; end is MaxInt64 until the window closes.
type window struct {
	start, end atomic.Int64
	stop       atomic.Bool // no new requests; drain and return
	traced     atomic.Bool // record client spans
}

func newWindow() *window {
	w := &window{}
	w.start.Store(math.MaxInt64)
	w.end.Store(math.MaxInt64)
	return w
}

// inFlight is one request awaiting its reply.
type inFlight struct {
	id   uint64
	kind uint8
	key  uint32
	ver  uint32 // GET: the version it must read; PUT: the version it writes
	sent int64  // when its burst was flushed
	vlen int    // PUT: value length
}

// loadConn drives one connection as a closed loop with a fixed number of
// requests in flight: each reply is checked, and a new request replaces it.
// Requests issued while earlier replies are still buffered go out together
// in one flush, so the connection pipelines naturally.
type loadConn struct {
	idx    int
	codec  codec
	ks     *keyspace
	stream *stream
	win    *window
	tr     *tracer
	depth  int

	ring       []inFlight
	head, size int
	unsent     int // requests at the ring's tail not yet flushed
	val        []byte
	expect     []byte

	// Results, read by the controller after run returns.
	done          atomic.Int64 // completions in total; read by the warm-up poll
	windowOps     int64        // completions inside the window
	getNs, putNs  []int64      // latencies of requests sent and answered inside the window
	putBytes      int64        // key+value bytes of PUTs acknowledged inside the window
	failed        int64
	firstFailures []string
}

func newLoadConn(idx int, c codec, ks *keyspace, s *stream, win *window, tr *tracer, depth, samples int) *loadConn {
	return &loadConn{
		idx: idx, codec: c, ks: ks, stream: s, win: win, tr: tr, depth: depth,
		ring:  make([]inFlight, depth),
		getNs: make([]int64, 0, samples),
		putNs: make([]int64, 0, samples),
	}
}

// fail records one failed operation.
func (c *loadConn) fail(format string, args ...any) {
	c.failed++
	if len(c.firstFailures) < 5 {
		c.firstFailures = append(c.firstFailures, fmt.Sprintf(format, args...))
	}
}

// issue encodes one new request behind the in-flight ones. The encode span
// covers only the protocol encoding, not generating the value.
func (c *loadConn) issue() error {
	kind, key := c.stream.next()
	c.stream.requests++
	op := inFlight{id: uint64(c.idx)<<48 | c.stream.requests, kind: kind, key: key}
	if kind == opPut {
		c.ks.sent[key]++
		c.val = c.ks.appendValue(c.val[:0], key, c.ks.sent[key])
		op.vlen = len(c.val)
	}
	op.ver = c.ks.sent[key]
	traced := c.win.traced.Load()
	var t0 int64
	if traced {
		t0 = c.tr.now()
	}
	var err error
	if kind == opPut {
		err = c.codec.writePut(c.ks.keys[key], c.val)
	} else {
		err = c.codec.writeGet(c.ks.keys[key])
	}
	if traced {
		c.tr.record(spanEncode, op.id, 0, t0, c.tr.now())
	}
	c.ring[(c.head+c.size)%c.depth] = op
	c.size++
	c.unsent++
	return err
}

// flush sends every unsent request and stamps their send time.
func (c *loadConn) flush() error {
	if c.unsent == 0 {
		return nil
	}
	t0 := c.tr.now()
	err := c.codec.flush()
	now := c.tr.now()
	for i := c.size - c.unsent; i < c.size; i++ {
		c.ring[(c.head+i)%c.depth].sent = now
	}
	if c.win.traced.Load() {
		last := c.ring[(c.head+c.size-1)%c.depth].id
		c.tr.record(spanFlush, last, 0, t0, now)
	}
	c.unsent = 0
	return err
}

// complete reads and checks the reply to the oldest in-flight request.
func (c *loadConn) complete() error {
	op := c.ring[c.head]
	traced := c.win.traced.Load()
	if traced && c.codec.buffered() == 0 {
		t0 := c.tr.now()
		if err := c.codec.awaitReply(); err != nil {
			return err
		}
		c.tr.record(spanWait, op.id, 0, t0, c.tr.now())
	}
	var t0 int64
	if traced {
		t0 = c.tr.now()
	}
	kind, payload, err := c.codec.readReply()
	if err != nil {
		return err
	}
	ok := true
	switch op.kind {
	case opGet:
		c.expect = c.ks.appendValue(c.expect[:0], op.key, op.ver)
		if kind != replyVal || !bytes.Equal(payload, c.expect) {
			ok = false
			c.fail("GET %s: got kind %d %q, want version %d %q", c.ks.keys[op.key], kind, payload, op.ver, c.expect)
		}
	case opPut:
		if kind != replyOK {
			ok = false
			c.fail("PUT %s version %d: got kind %d %q", c.ks.keys[op.key], op.ver, kind, payload)
		} else {
			c.ks.acked[op.key] = op.ver
		}
	}
	now := c.tr.now()
	if traced {
		c.tr.record(spanDecode, op.id, 0, t0, now)
	}
	c.head = (c.head + 1) % c.depth
	c.size--
	c.done.Add(1)
	if start, end := c.win.start.Load(), c.win.end.Load(); now >= start && now <= end {
		c.windowOps++
		switch {
		case !ok || op.sent < start:
		case op.kind == opPut:
			c.putNs = append(c.putNs, now-op.sent)
			c.putBytes += int64(len(c.ks.keys[op.key]) + op.vlen)
		default:
			c.getNs = append(c.getNs, now-op.sent)
		}
	}
	return nil
}

// run keeps depth requests in flight until the window's stop flag is set,
// then drains the remaining replies.
func (c *loadConn) run() error {
	for c.size < c.depth {
		if err := c.issue(); err != nil {
			return err
		}
	}
	if err := c.flush(); err != nil {
		return err
	}
	for c.size > 0 {
		if err := c.complete(); err != nil {
			return err
		}
		if !c.win.stop.Load() {
			if err := c.issue(); err != nil {
				return err
			}
		}
		// Flush once no further reply is buffered: everything issued while
		// draining a burst of replies leaves in one write.
		if c.codec.buffered() == 0 {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	if c.unsent != 0 {
		return errors.New("load connection stopped with unsent requests")
	}
	return nil
}
