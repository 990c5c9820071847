package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"crafty/internal/core"
	"crafty/internal/htm"
	"crafty/internal/kv"
	"crafty/internal/nvm"
	"crafty/internal/obs"
	"crafty/internal/ptm"
	"crafty/internal/workloads/bank"
)

// engineRegistry reads an in-process engine (and store, if any) under the
// same instrument names craftykv's INFO uses, so served and in-process
// workloads share one per-layer computation.
func engineRegistry(eng *core.Engine, store *kv.Store) *obs.Registry {
	reg := obs.NewRegistry()
	eng.Metrics().RegisterInto(reg, "core")
	eng.Heap().RegisterMetrics(reg, "nvm")
	if store != nil {
		store.Metrics().RegisterInto(reg, "kv")
	}
	reg.Sampler(func(emit func(name string, v int64)) {
		st := eng.Stats()
		for o := 0; o < ptm.NumOutcomes; o++ {
			emit("core.outcomes."+ptm.Outcome(o).MetricKey(), int64(st.Persistent[o]))
		}
		emit("core.txns", int64(st.Txns()))
		emit("core.writes", int64(st.Writes))
		emit("htm.commits", int64(st.HTM.Commits))
		for c := htm.CauseConflict; int(c) < htm.NumCauses; c++ {
			emit("htm.aborts."+c.String(), int64(st.HTM.Aborts[c]))
		}
		if a := eng.Arena(); a != nil { // engines without an arena (ArenaWords 0) have none
			ast := a.Stats()
			emit("arena.live_words", int64(ast.LiveWords))
			emit("arena.free_words", int64(ast.FreeWords))
			emit("arena.used_words", int64(ast.UsedWords))
			emit("arena.capacity_words", int64(ast.DataWords))
		}
	})
	return reg
}

// bankThreads is the engine-bank worker count (the paper's bank at two
// threads, one per CPU of the reference machine).
const bankThreads = 2

// bankSetups is how many times each repetition builds the engine and sets
// up the bank; setup_s is the median, since one setup takes milliseconds.
const bankSetups = 5

// bankWarm runs the workers unmeasured before the window opens.
const bankWarm = 300 * time.Millisecond

// bankResult is what one engine-bank repetition measured.
type bankResult struct {
	setupS   []float64
	windows  []windowStats // one per window, transactions counted as puts
	ops      float64       // timed transactions over every window
	d        delta         // engine instruments over the untraced windows
	rssMB    float64
	steal    float64 // host steal share over the last window
	failed   int64
	failures []string
	tracers  []*tracer
}

// bankEngine is one engine with the bank set up on it.
type bankEngine struct {
	wl      *bank.Bank
	heap    *nvm.Heap
	eng     *core.Engine
	threads []ptm.Thread
}

// newBankEngine builds a Crafty engine over an untracked heap with the
// paper's 300 ns drain latency and sets up the bank at high contention.
func newBankEngine() (*bankEngine, error) {
	wl := bank.New(bank.Config{Contention: bank.HighContention, Threads: bankThreads})
	req := wl.Requirements()
	// The harness's sizing: workload data, arena, per-thread logs, slack.
	heap := nvm.NewHeap(nvm.Config{
		Words:          req.HeapWords + req.ArenaWords + (bankThreads+2)*(1<<18) + 1<<20,
		PersistLatency: nvm.DefaultPersistLatency,
	})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: req.ArenaWords})
	if err != nil {
		return nil, err
	}
	b := &bankEngine{wl: wl, heap: heap, eng: eng, threads: make([]ptm.Thread, bankThreads)}
	for i := range b.threads {
		b.threads[i] = eng.Register()
	}
	if err := wl.Setup(eng, b.threads[0]); err != nil {
		eng.Close()
		return nil, fmt.Errorf("bank setup: %w", err)
	}
	return b, nil
}

// runBank sets the bank up bankSetups times, keeps the last engine, and
// runs two workers on it: bankWarm unmeasured, then one window of d per
// entry of traced, back to back. Every bank.Run (one ptm.Thread.Atomic
// call) in a window is timed; in a traced window each Run is also a span
// and its Atomic call a child span. Money conservation is checked at the
// end.
func runBank(seed int64, d time.Duration, traced []bool) (bankResult, error) {
	var res bankResult
	var b *bankEngine
	for i := 0; i < bankSetups; i++ {
		if b != nil {
			// Free the previous engine first, so the peak RSS stays that of
			// one engine and no collection lands inside a timed setup.
			b.eng.Close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if b, err = newBankEngine(); err != nil {
			return res, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer b.eng.Close()

	// Engine statistics are per-thread and unsynchronized, so every
	// snapshot is taken with the workers stopped, between windows.
	reg := engineRegistry(b.eng, nil)
	base := time.Now()
	workers := make([]*bankWorker, bankThreads)
	for w := range workers {
		workers[w] = &bankWorker{
			idx: w, wl: b.wl, th: b.threads[w], tr: newTracer(base),
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(w))),
		}
		workers[w].timed = newTimedThread(b.threads[w], workers[w].tr)
		res.tracers = append(res.tracers, workers[w].tr)
	}
	runBankWorkers(workers, bankWarm, nil, false)
	for _, isTraced := range traced {
		for _, bw := range workers {
			bw.ns = make([]int64, 0, sampleCap(d.Seconds(), bankThreads))
		}
		before := reg.SnapshotMap()
		win := newWindow()
		t0 := time.Now()
		win.start.Store(int64(t0.Sub(base)))
		win.end.Store(int64(t0.Add(d).Sub(base)))
		steal, cpu0 := startSteal(), selfCPUSeconds()
		runBankWorkers(workers, d, win, isTraced)
		cpu := selfCPUSeconds() - cpu0
		res.steal = steal.share()
		if !isTraced {
			res.d = res.d.join(delta{before, reg.SnapshotMap()})
		}
		var all []int64
		for _, bw := range workers {
			all = append(all, bw.ns...)
			bw.ns = nil
		}
		res.ops += float64(len(all))
		// Summarized at once, so no sample buffer outlives its window and
		// the resident set read below is the engine's.
		res.windows = append(res.windows, summarize(float64(len(all)), d.Seconds(), cpu, nil, all))
	}
	for _, bw := range workers {
		if bw.err != nil {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("worker %d: %v", bw.idx, bw.err))
		}
	}
	if err := b.wl.Check(b.heap); err != nil {
		res.failed++
		res.failures = append(res.failures, err.Error())
	}
	// The resident set of the live engine once the benchmark's own buffers
	// and garbage are returned: the process's high-water mark would mostly
	// measure when the collector last ran and how many samples were taken.
	runtime.GC()
	debug.FreeOSMemory()
	kb, err := procStatusKB("self", "VmRSS")
	res.rssMB = kb / 1024
	return res, err
}

// bankWorker is one engine-bank thread and what it measured.
type bankWorker struct {
	idx   int
	wl    *bank.Bank
	th    ptm.Thread
	timed *timedThread // th wrapped for traced windows
	tr    *tracer
	rng   *rand.Rand

	ns  []int64 // latencies of the Runs inside the current window
	err error
}

// runBankWorkers runs every worker for d and waits for them. With a window,
// each Run that starts and ends inside it has its latency recorded (and,
// when traced, is recorded as a span).
func runBankWorkers(workers []*bankWorker, d time.Duration, win *window, traced bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, bw := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bw.run(&stop, win, traced)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
}

func (bw *bankWorker) run(stop *atomic.Bool, win *window, traced bool) {
	th := bw.th
	if traced {
		th = bw.timed
	}
	for !stop.Load() && bw.err == nil {
		var id uint64
		if traced {
			id = bw.tr.newID()
			bw.timed.parent = id
		}
		s := bw.tr.now()
		bw.err = bw.wl.Run(bw.idx, th, bw.rng)
		e := bw.tr.now()
		if win == nil || bw.err != nil || s < win.start.Load() || e > win.end.Load() {
			continue
		}
		bw.ns = append(bw.ns, e-s)
		if traced {
			bw.tr.record(spanRun, id, 0, s, e)
		}
	}
}
