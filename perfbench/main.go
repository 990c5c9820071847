// Command perfbench is the repository's benchmark: served key-value
// workloads against a freshly built craftykv process, and the paper's bank
// workload on an in-process Crafty engine. One invocation runs one workload:
//
//	perfbench -server <craftykv binary> --workload kv-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, each summarized over
// many repetitions; with --trace 1 it reports the per-layer metrics from
// instrument deltas, client spans and an in-process replay. Every output is
// checked; the last line of standard output is the JSON result, and the
// exit code is non-zero when any check failed. perfbench/run.sh builds both
// binaries and runs it; NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"crafty/internal/workloads/ycsb"
)

// config is one invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	commit    string
	spanDir   string // where a traced run writes its spans
	records   int    // keys of a served workload; 0 keeps the workload's own
	reps      int    // repetitions of an untraced run
}

// defaultReps is the number of repetitions of an untraced run. Each starts
// from scratch (a fresh server or engine) and measures one window; every
// end-to-end metric summarizes the repetitions' values (see newCollectors).
const defaultReps = 20

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail describes one metric in the record line: its value, unit, how
// many samples it rests on, and for a summary over repetitions their count,
// interquartile spread (as a share of their median), and the values
// themselves.
type detail struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	N       int       `json:"n,omitempty"`
	Spread  float64   `json:"spread,omitempty"`
	Values  []float64 `json:"values,omitempty"`
}

// record is the line before the result: the run's environment and every
// metric with its sample count, including the workload-specific end-to-end
// metrics the result line does not carry.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS map[string]int    `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	CPU        string            `json:"cpu"`
	GoVersion  string            `json:"go"`
	Commit     string            `json:"commit"`
	Metrics    map[string]detail `json:"metrics"`
	Failures   []string          `json:"failures,omitempty"`
	Warnings   []string          `json:"warnings,omitempty"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv-read, kv-write or engine-bank")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&cfg.serverBin, "server", "", "craftykv binary (served workloads)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit under test, for the record")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.spanDir = filepath.Join(".bench_build", "spans")
	cfg.reps = defaultReps

	rec, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(map[string]record{"record": rec}), enc.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation.
func run(cfg config) (record, result, error) {
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(), Commit: cfg.commit,
		Metrics: map[string]detail{},
	}
	res := result{Metrics: map[string]metricValue{}}
	if cfg.seconds <= 0 || cfg.reps <= 0 {
		return rec, res, errors.New("seconds and repetitions must be positive")
	}
	var err error
	if cfg.workload == "engine-bank" {
		rec.GOMAXPROCS = map[string]int{"bench": bankThreads}
		runtime.GOMAXPROCS(bankThreads)
		err = runBankWorkload(cfg, &rec, &res)
	} else {
		spec, ok := servedSpecs[cfg.workload]
		if !ok {
			return rec, res, fmt.Errorf("unknown workload %q (want kv-read, kv-write or engine-bank)", cfg.workload)
		}
		if cfg.serverBin == "" {
			return rec, res, errors.New("-server is required for served workloads")
		}
		if cfg.records > 0 {
			spec.records = cfg.records
		}
		if spec.records%(preloadBatch*loadConns) != 0 {
			return rec, res, fmt.Errorf("record count %d is not a multiple of %d", spec.records, preloadBatch*loadConns)
		}
		rec.GOMAXPROCS = map[string]int{"server": 1, "client": 1}
		runtime.GOMAXPROCS(1)
		err = runServedWorkload(cfg, spec, &rec, &res)
	}
	if err != nil {
		return rec, res, err
	}
	res.Correct = res.Failed == 0
	rec.Metrics["failed_ops"] = detail{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: int(res.Attempted)}
	return rec, res, nil
}

// repeated collects one metric's values, one per repetition, and the
// samples they rest on. The run reports their median, or their mean for a
// figure of the measured windows.
type repeated struct {
	unit    string
	vals    []float64
	samples int
	mean    bool
}

// summary is the value the run reports.
func (r *repeated) summary() float64 {
	if r.mean {
		return mean(r.vals)
	}
	return median(r.vals)
}

func (r *repeated) add(samples int, vals ...float64) {
	r.vals = append(r.vals, vals...)
	r.samples += samples
}

// collectors holds the end-to-end metrics of an untraced run by name.
type collectors map[string]*repeated

// newCollectors returns the end-to-end collectors of a workload: the
// listed set, the wall-clock throughput, the p99, and the host's steal
// share in each window; for a served workload also the per-kind p50s and
// the shard rehashes its setup completed (the index growth setup_s
// includes); and the recovery time of one that crashes.
//
// The figures of the measured windows are reported as their mean over the
// repetitions, set-up time, memory and recovery as their median. The
// reference machine's one-second windows fall into a fast and a slow mode
// about 1.5x apart, in proportions that change from run to run; a median
// jumps from one mode to the other as the mix changes, while a mean moves
// with the mix. Set-up happens once per repetition and is reported as the
// median of several, so that one slow start does not move it.
func newCollectors(served, crash bool) collectors {
	m := collectors{}
	for _, s := range endToEnd {
		m[s.name] = &repeated{unit: s.unit, mean: s.name != "setup_s" && s.name != "rss_mb"}
	}
	m["throughput_ops_s"] = &repeated{unit: "1/s", mean: true}
	m["latency_p99_us"] = &repeated{unit: "us", mean: true}
	m["host.steal_share"] = &repeated{unit: "ratio", mean: true}
	if served {
		m["get_p50_us"] = &repeated{unit: "us", mean: true}
		m["put_p50_us"] = &repeated{unit: "us", mean: true}
		m["setup.rehashes"] = &repeated{unit: "count"}
	}
	if crash {
		m["recovery_s"] = &repeated{unit: "s"}
	}
	return m
}

// addWindow adds one repetition's measured window.
func (m collectors) addWindow(rec *record, w windowStats) {
	m["ops_per_cpu_s"].add(int(w.ops), w.opsPerCPU)
	m["throughput_ops_s"].add(int(w.ops), w.tput)
	m["latency_p50_us"].add(w.samples, w.p50)
	m["latency_p90_us"].add(w.samples, w.p90)
	m["latency_p99_us"].add(w.samples, w.p99)
	if g := m["get_p50_us"]; g != nil {
		g.add(w.gets, w.getP50)
		m["put_p50_us"].add(w.puts, w.putP50)
	}
	if w.samples < minTailSamples {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("a window's p99 rests on %d samples, fewer than %d", w.samples, minTailSamples))
	}
}

// report puts the summary, spread and values of every collected metric
// into the record, and the listed end-to-end ones into the result line.
func (m collectors) report(rec *record, res *result) {
	for name, r := range m {
		v := r.summary()
		rec.Metrics[name] = detail{Value: v, Unit: r.unit, Samples: r.samples, N: len(r.vals), Spread: relSpread(r.vals), Values: r.vals}
	}
	for _, s := range endToEnd {
		res.Metrics[s.name] = metricValue{Value: rec.Metrics[s.name].Value, Unit: s.unit}
	}
}

// reportLayers puts every per-layer metric into both lines.
func reportLayers(rec *record, res *result, m map[string]float64, samples int) {
	for _, s := range perLayer {
		v := m[s.name]
		rec.Metrics[s.name] = detail{Value: v, Unit: s.unit, Samples: samples}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
}

func runServedWorkload(cfg config, spec servedSpec, rec *record, res *result) error {
	var zipf *ycsb.Zipf
	if spec.zipfian {
		zipf = ycsb.NewZipf(uint64(spec.records), ycsb.ZipfTheta)
	}
	if cfg.trace {
		return runServedTraced(cfg, spec, zipf, rec, res)
	}
	window := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
	m := newCollectors(true, spec.crash)
	for r := 0; r < cfg.reps; r++ {
		t0 := time.Now()
		sess, err := startSession(cfg.serverBin, spec, zipf, cfg.seed+int64(r)*7919)
		if err != nil {
			return err
		}
		ph, err := sess.phase(window, true, false)
		var cr crashResult
		if err == nil && spec.crash {
			cr, err = sess.crashAndVerify()
		}
		sess.close()
		if err != nil {
			return err
		}
		m.addWindow(rec, summarize(ph.ops, ph.secs, ph.serverCPU, ph.getNs, ph.putNs))
		m["host.steal_share"].add(1, ph.stealShare)
		m["setup_s"].add(1, ph.setupEnd.Sub(t0).Seconds())
		m["rss_mb"].add(1, ph.setupRSS)
		m["setup.rehashes"].add(1, float64(ph.setupRehashes))
		if spec.crash {
			m["recovery_s"].add(1, cr.recoveryS)
		}
		res.Attempted += ph.attempted + cr.attempted
		res.Failed += ph.failed + cr.failed
		rec.Failures = append(rec.Failures, append(ph.failures, cr.failures...)...)
	}
	m.report(rec, res)
	return nil
}

// traceWindows is the traced run's window pattern: untraced and traced
// windows alternate, so a drift in the machine's speed during the run
// affects both sides of trace.overhead alike.
var traceWindows = []bool{false, true, false, true}

// rate accumulates completions and seconds over several windows.
type rate struct{ ops, secs float64 }

func (r *rate) add(ops, secs float64) { r.ops += ops; r.secs += secs }
func (r rate) perSecond() float64     { return ratio(r.ops, r.secs) }

func runServedTraced(cfg config, spec servedSpec, zipf *ycsb.Zipf, rec *record, res *result) error {
	d := time.Duration(cfg.seconds / float64(len(traceWindows)) * float64(time.Second))
	sess, err := startSession(cfg.serverBin, spec, zipf, cfg.seed)
	if err != nil {
		return err
	}
	var plain, traced rate
	var in layerInputs
	var tracers []*tracer
	for i, isTraced := range traceWindows {
		var ph phaseResult
		if ph, err = sess.phase(d, i == 0, isTraced); err != nil {
			break
		}
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		rec.Failures = append(rec.Failures, ph.failures...)
		if isTraced {
			traced.add(ph.ops, ph.secs)
			tracers = append(tracers, ph.tracers...)
			continue
		}
		plain.add(ph.ops, ph.secs)
		in.d = in.d.join(delta{ph.before, ph.after})
		in.clientLat = (in.clientLat*in.ops + ph.meanLatNs*ph.ops) / max(1, in.ops+ph.ops)
		in.ops += ph.ops
		in.serverCPU += ph.serverCPU
		in.userBytes += ph.putBytes
	}
	if err == nil && spec.crash {
		var cr crashResult
		cr, err = sess.crashAndVerify()
		in.crash = &cr
		res.Attempted += cr.attempted
		res.Failed += cr.failed
		rec.Failures = append(rec.Failures, cr.failures...)
	}
	in.liveBytes, in.keys = sess.ks.userBytes(), float64(len(sess.ks.keys))
	sess.close()
	if err != nil {
		return err
	}
	batch := max(1, int(math.Round(in.d.mean("sched.drain_batch"))))
	rp, err := replay(spec, zipf, cfg.seed, batch, d)
	if err != nil {
		return err
	}
	res.Attempted += int64(rp.ops)
	res.Failed += rp.failed
	rec.Failures = append(rec.Failures, rp.failures...)

	in.served, in.clientTracers, in.replay = true, tracers, &rp
	in.untracedTput, in.tracedTput = plain.perSecond(), traced.perSecond()
	reportLayers(rec, res, layerMetrics(in), int(in.ops))
	rec.Metrics["replay.apply_coverage"] = detail{Value: ratio(float64(rp.split.child), float64(rp.split.total)), Unit: "ratio", Samples: rp.split.parents}
	return writeSpans(filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed)),
		append(tracers, rp.tr)...)
}

func runBankWorkload(cfg config, rec *record, res *result) error {
	if cfg.trace {
		d := time.Duration(cfg.seconds / float64(len(traceWindows)) * float64(time.Second))
		br, err := runBank(cfg.seed, d, traceWindows)
		if err != nil {
			return err
		}
		var plain, traced rate
		for i, w := range br.windows {
			if traceWindows[i] {
				traced.add(w.ops, d.Seconds())
			} else {
				plain.add(w.ops, d.Seconds())
			}
		}
		in := layerInputs{
			d: br.d, ops: br.d.get("core.txns"), userBytes: 8 * br.d.get("core.writes"),
			bankTracers:  br.tracers,
			untracedTput: plain.perSecond(), tracedTput: traced.perSecond(),
		}
		reportLayers(rec, res, layerMetrics(in), int(in.ops))
		res.Attempted, res.Failed, rec.Failures = int64(br.ops), br.failed, br.failures
		return writeSpans(filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed)), br.tracers...)
	}
	window := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
	m := newCollectors(false, false)
	for r := 0; r < cfg.reps; r++ {
		br, err := runBank(cfg.seed+int64(r)*7919, window, []bool{false})
		if err != nil {
			return err
		}
		m.addWindow(rec, br.windows[0])
		m["host.steal_share"].add(1, br.steal)
		m["setup_s"].add(len(br.setupS), br.setupS...)
		m["rss_mb"].add(1, br.rssMB)
		res.Attempted += int64(br.ops)
		res.Failed += br.failed
		rec.Failures = append(rec.Failures, br.failures...)
	}
	m.report(rec, res)
	return nil
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
