package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"crafty"
	"crafty/internal/wire"
)

// binClient is a binary-protocol test client: handshake done, frames in and
// out.
type binClient struct {
	conn net.Conn
	enc  *wire.Encoder
	w    *bufio.Writer
	rd   *wire.Reader
	ver  byte
}

// dialBin connects and completes the handshake at clientVer.
func dialBin(t *testing.T, addr string, clientVer byte) *binClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := bufio.NewWriter(conn)
	enc := wire.NewEncoder(w)
	if err := enc.Handshake(clientVer); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var hs [wire.HandshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		t.Fatalf("reading handshake ack: %v", err)
	}
	ver, err := wire.ParseHandshake(hs[:])
	if err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	return &binClient{conn: conn, enc: enc, w: w, rd: wire.NewReader(br, 0), ver: ver}
}

// next flushes pending frames and reads one response frame.
func (c *binClient) next(t *testing.T) (wire.Type, []byte) {
	t.Helper()
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.rd.Next()
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	return typ, payload
}

// expect flushes and asserts the next frame's type and payload.
func (c *binClient) expect(t *testing.T, wantType wire.Type, wantPayload string) {
	t.Helper()
	typ, payload := c.next(t)
	if typ != wantType || string(payload) != wantPayload {
		t.Fatalf("got (%v, %q), want (%v, %q)", typ, payload, wantType, wantPayload)
	}
}

func (c *binClient) expectUint(t *testing.T, want uint64) {
	t.Helper()
	typ, payload := c.next(t)
	if typ != wire.TUint {
		t.Fatalf("got (%v, %q), want TUint", typ, payload)
	}
	v, err := wire.DecodeUintPayload(payload)
	if err != nil || v != want {
		t.Fatalf("TUint = (%d, %v), want %d", v, err, want)
	}
}

// TestWireHandshake pins version negotiation: the server answers with
// min(its version, the client's).
func TestWireHandshake(t *testing.T) {
	addr := startServer(t)
	if c := dialBin(t, addr, wire.Version); c.ver != wire.Version {
		t.Fatalf("negotiated version %d, want %d", c.ver, wire.Version)
	}
	// A futuristic client is answered at the server's version, not its own.
	if c := dialBin(t, addr, 9); c.ver != wire.Version {
		t.Fatalf("negotiated version %d for a v9 client, want %d", c.ver, wire.Version)
	}
}

// TestWireBadHandshakeRejected: 0xCF without the full magic is refused with
// a text error (the one encoding a confused client definitely reads).
func TestWireBadHandshakeRejected(t *testing.T) {
	addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{wire.Magic0, 'X', 'X', 1, '\n'}); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR ") {
		t.Fatalf("got (%q, %v), want an ERR line", line, err)
	}
}

// TestWireCommands drives every request frame type against a live server.
func TestWireCommands(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)

	c.enc.Get([]byte("nothing"))
	c.expect(t, wire.TNil, "")

	c.enc.Put([]byte("greeting"), []byte("hello"))
	c.expect(t, wire.TOK, "")
	c.enc.Get([]byte("greeting"))
	c.expect(t, wire.TVal, "hello")

	c.enc.MPut([][]byte{[]byte("a"), []byte("1"), []byte("b"), []byte("2")})
	c.expectUint(t, 2)

	c.enc.MGet([][]byte{[]byte("a"), []byte("b"), []byte("nope")})
	c.expect(t, wire.TVal, "1")
	c.expect(t, wire.TVal, "2")
	c.expect(t, wire.TNil, "")

	c.enc.Request0(wire.TLen)
	c.expectUint(t, 3)

	c.enc.MDel([][]byte{[]byte("a"), []byte("nope")})
	c.expect(t, wire.TOK, "")
	c.expect(t, wire.TNil, "")

	c.enc.Del([]byte("b"))
	c.expect(t, wire.TOK, "")
	c.enc.Del([]byte("b"))
	c.expect(t, wire.TNil, "")

	c.enc.Request0(wire.TSync)
	c.expect(t, wire.TOK, "")

	c.enc.Request0(wire.TCheckpoint)
	if typ, payload := c.next(t); typ != wire.TText || !strings.HasPrefix(string(payload), "OK seq=") {
		t.Fatalf("CHECKPOINT: got (%v, %q)", typ, payload)
	}

	c.enc.Request0(wire.TInfo)
	typ, payload := c.next(t)
	if typ != wire.TText || !strings.HasPrefix(string(payload), "INFO ") {
		t.Fatalf("INFO: got (%v, %.40q...)", typ, payload)
	}
	if !strings.Contains(string(payload), "\nwire.frames ") {
		t.Fatalf("INFO over binary lacks the wire.frames counter:\n%.200s", payload)
	}
}

// TestWireCrashRecovery: a synced write over the binary protocol survives an
// injected crash issued over the binary protocol.
func TestWireCrashRecovery(t *testing.T) {
	addr := startServerPersist(t, 0)
	c := dialBin(t, addr, wire.Version)
	c.enc.Put([]byte("durable"), []byte("yes"))
	c.expect(t, wire.TOK, "")
	c.enc.Request0(wire.TSync)
	c.expect(t, wire.TOK, "")
	c.enc.Request0(wire.TCrash)
	if typ, payload := c.next(t); typ != wire.TText || !strings.HasPrefix(string(payload), "OK rolled_back=") {
		t.Fatalf("CRASH: got (%v, %q)", typ, payload)
	}
	c.enc.Get([]byte("durable"))
	c.expect(t, wire.TVal, "yes")
}

// TestWirePipelinedBurst: many frames in one write, every reply in order,
// and the multi-op frame decodes into one scheduler request (1:1 op
// mapping).
func TestWirePipelinedBurst(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)
	const n = 64
	for i := 0; i < n; i++ {
		c.enc.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	for i := 0; i < n; i++ {
		c.expect(t, wire.TOK, "")
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%03d", i))
	}
	c.enc.MGet(keys)
	for i := 0; i < n; i++ {
		c.expect(t, wire.TVal, fmt.Sprintf("v%03d", i))
	}
}

// TestWireTextInterop: both protocols read each other's writes on one
// server.
func TestWireTextInterop(t *testing.T) {
	addr := startServer(t)
	bc := dialBin(t, addr, wire.Version)
	tc := dial(t, addr)

	tc.expect(t, "PUT fromtext hello", "OK")
	bc.enc.Get([]byte("fromtext"))
	bc.expect(t, wire.TVal, "hello")

	bc.enc.Put([]byte("frombin"), []byte("world"))
	bc.expect(t, wire.TOK, "")
	tc.expect(t, "GET frombin", "VAL world")
}

// TestWireOversizedFrame: a frame over the limit draws the typed refusal and
// the connection survives — the binary twin of TestOverlongLineRejected.
func TestWireOversizedFrame(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)
	c.enc.Put([]byte("big"), bytes.Repeat([]byte("x"), maxFrame+512))
	c.expect(t, wire.TErr, "frame too large "+fmt.Sprint(maxFrame))
	// The reader discarded the frame whole; the stream is still framed.
	c.enc.Put([]byte("survivor"), []byte("v"))
	c.expect(t, wire.TOK, "")
	c.enc.Get([]byte("survivor"))
	c.expect(t, wire.TVal, "v")
}

// TestWireMalformedPayload: a bad payload inside a well-framed frame is
// answered and the connection stays alive; so is an unknown frame type.
func TestWireMalformedPayload(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)

	// TPut frame with an empty key: frame = size(4) type(TPut) 0x00 0x01 'v'.
	c.w.Write([]byte{4, byte(wire.TPut), 0, 1, 'v'})
	typ, payload := c.next(t)
	if typ != wire.TErr || !strings.Contains(string(payload), "empty key") {
		t.Fatalf("empty-key PUT: got (%v, %q)", typ, payload)
	}

	// Unknown frame type.
	c.w.Write([]byte{1, 0x7F})
	typ, payload = c.next(t)
	if typ != wire.TErr || !strings.Contains(string(payload), "unknown frame type") {
		t.Fatalf("unknown type: got (%v, %q)", typ, payload)
	}

	c.enc.Get([]byte("still")) // connection alive after both
	c.expect(t, wire.TNil, "")
}

// TestWireDesyncCloses: a framing-level violation (non-minimal size
// encoding) is fatal — the server answers once and closes.
func TestWireDesyncCloses(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)
	c.w.Write([]byte{0xF8, 0x02, 0x00, byte(wire.TLen), 0}) // size 2 as 16-bit
	typ, payload := c.next(t)
	if typ != wire.TErr {
		t.Fatalf("got (%v, %q), want TErr", typ, payload)
	}
	if _, _, err := c.rd.Next(); err == nil {
		t.Fatal("connection still open after a framing violation")
	}
}

// TestDispatchTokenizerAllocs pins the text tokenizer at zero allocations:
// splitting a multi-op line and building its ops into a warmed request
// allocates nothing. TestRequestPathAllocs pins the whole request path,
// completion and render included.
func TestDispatchTokenizerAllocs(t *testing.T) {
	line := []byte("MPUT key1 value1 key2 value2 key3 value3 key4 value4")
	req := &request{}
	warm := func() {
		cmd, rest, _ := cutSpace(line)
		if !cmdIs(cmd, "MPUT") {
			t.Fatal("tokenizer lost the command")
		}
		f := fields{b: rest}
		if n := f.count(); n != 8 {
			t.Fatalf("count = %d, want 8", n)
		}
		req.ops = req.ops[:0]
		req.res = req.res[:0]
		req.buf = req.buf[:0]
		for {
			k, ok := f.next()
			if !ok {
				break
			}
			v, _ := f.next()
			req.addOpBytes(crafty.KVPut, k, v)
		}
		if len(req.ops) != 4 {
			t.Fatalf("ops = %d, want 4", len(req.ops))
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Errorf("text tokenize+build allocates %v per request, want 0", allocs)
	}
}
