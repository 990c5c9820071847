package main

import (
	"errors"
	"testing"
	"time"

	"crafty/internal/ptm"
)

func TestSelfTimeAdd(t *testing.T) {
	var st selfTime
	st.add(100, 40)
	st.add(60, 0)
	want := selfTime{parents: 2, total: 160, child: 40, self: 120}
	if st != want {
		t.Errorf("selfTime = %+v, want %+v", st, want)
	}
}

// fakeThread is a ptm.Thread with a slot whose transactions take a fixed
// time.
type fakeThread struct {
	slot  int
	calls int
}

func (f *fakeThread) Atomic(body func(ptm.Tx) error) error {
	f.calls++
	time.Sleep(time.Millisecond)
	return body(nil)
}

func (f *fakeThread) AtomicRead(body func(ptm.Tx) error) error { return f.Atomic(body) }
func (f *fakeThread) Stats() ptm.Stats                         { return ptm.Stats{} }
func (f *fakeThread) Slot() int                                { return f.slot }

func TestTimedThreadRecordsChildSpans(t *testing.T) {
	inner := &fakeThread{slot: 5}
	tr := newTracer(time.Now())
	tt := newTimedThread(inner, tr)
	if got := stripeSlot(tt); got != 5 {
		t.Errorf("wrapped thread reports slot %d, want 5 (kv stripes its counters by slot)", got)
	}
	parent := tr.newID()
	tt.parent = parent
	start := tr.now()
	sentinel := errors.New("body failed")
	if err := tt.Atomic(func(ptm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tt.AtomicRead(func(ptm.Tx) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("AtomicRead returned %v, want the body's error", err)
	}
	end := tr.now()
	if inner.calls != 2 || tr.count[spanAtomic] != 1 || tr.count[spanAtomicRead] != 1 {
		t.Fatalf("calls %d, atomic spans %d, read spans %d", inner.calls, tr.count[spanAtomic], tr.count[spanAtomicRead])
	}
	if spans := tr.total[spanAtomic] + tr.total[spanAtomicRead]; tt.childNs != spans || tt.childNs < int64(2*time.Millisecond) {
		t.Errorf("child time %d, want the two spans' %d (at least 2ms)", tt.childNs, spans)
	}
	if tt.childNs > end-start {
		t.Errorf("child time %d exceeds the parent's %d", tt.childNs, end-start)
	}
	for _, sp := range tr.spans {
		if sp.parent != parent {
			t.Errorf("span %+v does not point at its parent %d", sp, parent)
		}
	}
	if m := meanNs(spanAtomic, tr); m < float64(time.Millisecond) {
		t.Errorf("mean Atomic span %v ns, want at least 1ms", m)
	}
}

// stripeSlot reads a thread's slot the way internal/kv does.
func stripeSlot(th ptm.Thread) int {
	if s, ok := th.(interface{ Slot() int }); ok {
		return s.Slot()
	}
	return -1
}
