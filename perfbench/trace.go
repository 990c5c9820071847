package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crafty/internal/ptm"
)

// layer names what a span covers. Every span is recorded by the benchmark's
// own code around a call into one layer's public functions; nothing inside
// the program under test is instrumented.
type layer uint8

const (
	spanEncode     layer = iota // client: encode one request into the connection buffer
	spanFlush                   // client: write one pipelined burst to the socket
	spanWait                    // client: block until reply bytes arrive
	spanDecode                  // client: decode (and check) one reply
	spanApply                   // replay: kv.Store.Apply on one drained batch
	spanAtomic                  // replay and bank: ptm.Thread.Atomic
	spanAtomicRead              // replay: ptm.Thread.AtomicRead
	spanRun                     // bank: one bank.Run call
	numLayers
)

var layerNames = [numLayers]string{
	"client.encode", "client.flush", "client.wait", "client.decode",
	"kv.apply", "core.atomic", "core.atomic_read", "bank.run",
}

// span is one timed call. Spans of one request share id (client spans) or
// point at the span that caused them through parent (replay children).
// Times are nanoseconds since the tracer's base.
type span struct {
	id, parent uint64
	layer      layer
	start, end int64
}

// spanLimit bounds the spans one tracer keeps in memory (the per-layer
// totals keep counting past it). 1<<17 spans is about 5 MB.
const spanLimit = 1 << 17

// tracer collects the spans of one goroutine; it is not safe for concurrent
// use, so every recording goroutine owns one.
type tracer struct {
	base  time.Time
	spans []span
	next  uint64
	count [numLayers]int64
	total [numLayers]int64
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// now is the current time in nanoseconds since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// newID hands out a span id unique within this tracer.
func (t *tracer) newID() uint64 {
	t.next++
	return t.next
}

// record adds one finished span.
func (t *tracer) record(l layer, id, parent uint64, start, end int64) {
	t.count[l]++
	t.total[l] += end - start
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, span{id: id, parent: parent, layer: l, start: start, end: end})
	}
}

// meanNs is the mean duration of every span of layer l across tracers.
func meanNs(l layer, ts ...*tracer) float64 {
	var n, tot int64
	for _, t := range ts {
		n += t.count[l]
		tot += t.total[l]
	}
	return ratio(float64(tot), float64(n))
}

// selfTime splits a parent layer's time: total is the time of its calls,
// child the part spent inside their child spans, and self the rest.
type selfTime struct {
	parents            int
	total, child, self int64
}

// add counts one parent call of the given duration whose children took
// child of it.
func (st *selfTime) add(total, child int64) {
	st.parents++
	st.total += total
	st.child += child
	st.self += total - child
}

// writeSpans writes every kept span as tab-separated text: id, parent,
// layer, start ns, end ns.
func writeSpans(path string, ts ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tlayer\tstart_ns\tend_ns")
	for _, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, layerNames[s.layer], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedThread wraps an engine thread so every Atomic and AtomicRead call
// becomes a child span of the span named by parent, and adds its duration
// to childNs, which the caller reads and resets per parent call. It
// forwards Slot, because the kv layer stripes its counters by engine
// thread slot.
type timedThread struct {
	ptm.Thread
	slot    int
	tr      *tracer
	parent  uint64
	childNs int64
}

func newTimedThread(th ptm.Thread, tr *tracer) *timedThread {
	t := &timedThread{Thread: th, tr: tr}
	if s, ok := th.(interface{ Slot() int }); ok {
		t.slot = s.Slot()
	}
	return t
}

func (t *timedThread) Slot() int { return t.slot }

func (t *timedThread) Atomic(body func(tx ptm.Tx) error) error {
	start := t.tr.now()
	err := t.Thread.Atomic(body)
	end := t.tr.now()
	t.childNs += end - start
	t.tr.record(spanAtomic, t.tr.newID(), t.parent, start, end)
	return err
}

func (t *timedThread) AtomicRead(body func(tx ptm.Tx) error) error {
	start := t.tr.now()
	err := t.Thread.AtomicRead(body)
	end := t.tr.now()
	t.childNs += end - start
	t.tr.record(spanAtomicRead, t.tr.newID(), t.parent, start, end)
	return err
}
