package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestReadInfo(t *testing.T) {
	in := "INFO 3\nkv.apply.groups 12\nsched.op_latency_ns.sum 5000\nsched.op_latency_ns.count 4\nNEXT\n"
	r := bufio.NewReader(strings.NewReader(in))
	snap, err := readInfo(r)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot{"kv.apply.groups": 12, "sched.op_latency_ns.sum": 5000, "sched.op_latency_ns.count": 4}
	if len(snap) != len(want) {
		t.Fatalf("parsed %v, want %v", snap, want)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %d, want %d", k, snap[k], v)
		}
	}
	// Exactly the announced lines are consumed.
	if rest, _ := readLine(r); rest != "NEXT" {
		t.Errorf("reader left at %q, want NEXT", rest)
	}
}

func TestReadInfoRejectsMalformedReplies(t *testing.T) {
	for _, in := range []string{
		"ERR unknown command\n",
		"INFO x\n",
		"INFO -1\n",
		"INFO 2\na 1\n",
		"INFO 1\nnovalue\n",
		"INFO 1\na b\n",
	} {
		if _, err := readInfo(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Errorf("readInfo(%q) succeeded", in)
		}
	}
}

func TestDeltaArithmetic(t *testing.T) {
	d := delta{
		before: snapshot{"c": 10, "h.sum": 1000, "h.count": 10, "x": 1, "y": 2},
		after:  snapshot{"c": 25, "h.sum": 4000, "h.count": 20, "x": 4, "y": 7, "new": 3},
	}
	if got := d.get("c"); got != 15 {
		t.Errorf("get = %v, want 15", got)
	}
	if got := d.get("new"); got != 3 {
		t.Errorf("a counter missing before reads from 0: %v", got)
	}
	if got := d.get("absent"); got != 0 {
		t.Errorf("an absent counter reads %v", got)
	}
	// The window's own mean: (4000-1000)/(20-10), not 4000/20.
	if got := d.mean("h"); got != 300 {
		t.Errorf("mean = %v, want 300", got)
	}
	if got := d.mean("absent"); got != 0 {
		t.Errorf("mean of an empty histogram = %v, want 0", got)
	}
	if got := d.sum("x", "y"); got != 8 {
		t.Errorf("sum = %v, want 8", got)
	}
}

func TestDeltaJoinSumsWindows(t *testing.T) {
	first := delta{snapshot{"c": 10, "h.sum": 100, "h.count": 1, "g": 5}, snapshot{"c": 15, "h.sum": 400, "h.count": 3, "g": 7}}
	second := delta{snapshot{"c": 40, "h.sum": 900, "h.count": 5, "g": 1}, snapshot{"c": 50, "h.sum": 1000, "h.count": 6, "g": 9}}
	j := delta{}.join(first).join(second)
	if got := j.get("c"); got != 15 {
		t.Errorf("joined change = %v, want 5+10", got)
	}
	if got := j.mean("h"); got != 400.0/3 {
		t.Errorf("joined mean = %v, want (300+100)/(2+1)", got)
	}
	if got := j.after["g"]; got != 9 {
		t.Errorf("joined end reading = %v, want the last window's 9", got)
	}
}

func TestLayerMetricsFromDeltas(t *testing.T) {
	d := delta{
		before: snapshot{},
		after: snapshot{
			"core.txns": 100, "core.outcomes.redo": 20, "core.outcomes.validate": 30,
			"core.outcomes.read_only": 50, "core.writes": 400, "core.log.wraps": 2,
			"htm.commits": 150, "htm.aborts.conflict": 30, "htm.aborts.explicit": 20,
			"nvm.flushed_lines": 80, "nvm.fences": 150, "nvm.drains": 4,
			"sched.op_latency_ns.sum": 200_000, "sched.op_latency_ns.count": 100,
			"arena.free_words": 10, "arena.used_words": 100, "arena.live_words": 90,
		},
	}
	m := layerMetrics(layerInputs{
		d: d, ops: 200, served: true, clientLat: 5000, userBytes: 1280, liveBytes: 360, keys: 9,
		untracedTput: 100, tracedTput: 90,
	})
	for name, want := range map[string]float64{
		"core.txns_per_op":            0.5,
		"core.redo_share":             0.2,
		"core.read_only_share":        0.5,
		"core.writes_per_txn":         8, // over the 50 writing transactions
		"core.log_wraps_per_ktxn":     20,
		"htm.commits_per_txn":         1.5,
		"htm.conflict_aborts_per_txn": 0.3,
		"htm.commit_ratio":            0.75,
		"nvm.drains_per_op":           0.02,
		"nvm.write_amp":               4,
		"sched.residence_us":          2,
		"net.outside_server_us":       3,
		"alloc.free_words_ratio":      0.1,
		"alloc.live_words_per_key":    10,
		"kv.space_amp":                2,
		"trace.overhead":              0.1,
		"recovery.server_s":           0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("layerMetrics returned %d metrics, want %d", len(m), len(perLayer))
	}
}
