package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []int64{50, 10, 40, 20, 30, 100, 90, 80, 70, 60}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0.01, 10}, {0.10, 10}, {0.11, 20}, {0.50, 50}, {0.51, 60}, {0.99, 100}, {1, 100},
	} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestMedianMeanAndQuartiles(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4), the driver's spread rule.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 12, 11}, 10, 11, 12},
	} {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := mean([]float64{1, 2, 3, 10}); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
	if got, want := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
}

func TestSummarizeWholeWindow(t *testing.T) {
	// 100 reads of 1..100 us and one write of 1 ms over two seconds: every
	// percentile is taken over all 101 samples, so the one slow write sets
	// neither the median nor (with 101 samples) the p99.
	var gets []int64
	for i := int64(100); i >= 1; i-- {
		gets = append(gets, i*1000)
	}
	w := summarize(300, 2, 0.5, gets, []int64{1_000_000})
	want := windowStats{ops: 300, tput: 150, opsPerCPU: 600, p50: 51, p90: 91, p99: 100, getP50: 50, putP50: 1000, samples: 101, gets: 100, puts: 1}
	if w != want {
		t.Errorf("summarize = %+v, want %+v", w, want)
	}
	// A stall in a few percent of the window reaches the p99 in full.
	var stalled []int64
	for i := 0; i < 1000; i++ {
		ns := int64(10_000)
		if i%50 == 0 {
			ns = 5_000_000
		}
		stalled = append(stalled, ns)
	}
	if w := summarize(1000, 1, 1, nil, stalled); w.p99 != 5000 || w.p50 != 10 {
		t.Errorf("stalled window: p50 %v p99 %v, want 10 and 5000", w.p50, w.p99)
	}
	if w := summarize(0, 0, 0, nil, nil); w != (windowStats{}) {
		t.Errorf("empty window = %+v", w)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*math.Max(1, math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func TestCollectorsSummaries(t *testing.T) {
	// Window figures are averaged over repetitions; set-up time and memory
	// take the median, so one slow start does not move them.
	m := newCollectors(true, true)
	var rec record
	rec.Metrics = map[string]detail{}
	for _, w := range []windowStats{{ops: 10, opsPerCPU: 100, p50: 1}, {ops: 10, opsPerCPU: 100, p50: 1}, {ops: 10, opsPerCPU: 400, p50: 7}} {
		m.addWindow(&rec, w)
	}
	m["setup_s"].add(1, 1, 1, 7)
	res := result{Metrics: map[string]metricValue{}}
	m.report(&rec, &res)
	for name, want := range map[string]float64{"ops_per_cpu_s": 200, "latency_p50_us": 3, "setup_s": 1} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if d := rec.Metrics["ops_per_cpu_s"]; d.N != 3 || d.Samples != 30 || len(d.Values) != 3 {
		t.Errorf("record of ops_per_cpu_s: %+v", d)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("result carries %d metrics, want the %d listed", len(res.Metrics), len(endToEnd))
	}
}
