package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestHeadroomGuard(t *testing.T) {
	// 100 keys of 8 bytes rewritten at 96-byte values need 100*(1+1+12)
	// words of free arena.
	ok := snapshot{"arena.capacity_words": 10_000, "arena.used_words": 8_600}
	if err := headroom(ok, 100, 8, 96); err != nil {
		t.Errorf("1400 free words cover 1400 words of churn: %v", err)
	}
	short := snapshot{"arena.capacity_words": 10_000, "arena.used_words": 8_601}
	if err := headroom(short, 100, 8, 96); err == nil {
		t.Error("1399 free words accepted for 1400 words of churn")
	}
	if err := headroom(snapshot{}, 1, 8, 8); err == nil {
		t.Error("a snapshot without arena counters accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the metric tables and the
// repository's BENCHMARK.json in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := servedSpecs[w.Name]; !ok && w.Name != "engine-bank" {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a tiny scale, untraced and
// traced, against a craftykv built from this checkout.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds craftykv and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "craftykv")
	if out, err := exec.Command("go", "build", "-o", bin, "crafty/cmd/craftykv").CombinedOutput(); err != nil {
		t.Fatalf("build craftykv: %v\n%s", err, out)
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{
		{"kv-read", false}, {"kv-write", false}, {"engine-bank", false},
		{"kv-write", true}, {"engine-bank", true},
	} {
		cfg := config{
			workload: c.workload, seed: 7, seconds: 0.4, trace: c.trace,
			serverBin: bin, spanDir: dir, records: 2000, reps: 2,
		}
		rec, res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
				c.workload, c.trace, res.Correct, res.Attempted, res.Failed, rec.Failures)
		}
		want := endToEnd
		if c.trace {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, want %d", c.workload, c.trace, len(res.Metrics), len(want))
		}
		for _, s := range want {
			v, ok := res.Metrics[s.name]
			if !ok || v.Unit != s.unit {
				t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", c.workload, c.trace, s.name, v, s.unit)
			}
			if !c.trace && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", c.workload, s.name, v.Value)
			}
		}
		if c.trace {
			m := res.Metrics
			if m["core.txns_per_op"].Value <= 0 || m["core.atomic_us"].Value <= 0 {
				t.Errorf("%s: core layer not measured: %+v", c.workload, m)
			}
			if c.workload == "kv-write" {
				apply, self := m["kv.apply_us"].Value, m["kv.self_us"].Value
				if apply <= 0 || self <= 0 || self > apply {
					t.Errorf("kv-write: kv.apply_us %v, kv.self_us %v", apply, self)
				}
				if m["recovery.verified_shards"].Value <= 0 || m["wire.frames_per_op"].Value != 0 {
					t.Errorf("kv-write: recovery %v, frames %v", m["recovery.verified_shards"], m["wire.frames_per_op"])
				}
			}
			if _, err := os.Stat(filepath.Join(dir, c.workload+"-seed7.tsv")); err != nil {
				t.Errorf("%s: spans not written: %v", c.workload, err)
			}
		}
	}
}
