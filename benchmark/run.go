package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	spilly "github.com/spilly-db/spilly"
)

// options are what one run of one workload is given. sfScale and maxRounds
// exist for the smoke test, which shrinks the data and runs one round.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sfScale   float64       // multiplies the workload's scale factor; 1 in every real run
	maxRounds int           // measured rounds; 0 = as many as fit in seconds
	kernelRep time.Duration // length of one kernel repetition; 0 = seconds/1000
}

// record is one run's result: what the ledger file keeps and what the last
// line of output is cut from.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	Seconds    float64  `json:"seconds"`
	WindowS    float64  `json:"window_s"`   // Σ round wall time of the measured window
	Rounds     int      `json:"rounds"`     // measured rounds (each client runs every job once per round)
	Executions int      `json:"executions"` // measured executions
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"` // every execution, warm-up and traced pass included
	Failed     int      `json:"failed"`
	Metrics    metrics  `json:"metrics"`
	Problems   []string `json:"problems,omitempty"`
	Warnings   []string `json:"warnings,omitempty"`
}

// exec is one execution as a client saw it.
type execRec struct {
	job   int
	lat   time.Duration
	stats spilly.Stats
	out   outcome
	err   error
}

// roundRec is one round: every client has sent every job once.
type roundRec struct {
	wall, cpu time.Duration
	execs     []execRec
}

func newExec(ji int, j job, lat time.Duration, res *spilly.Result, err error) execRec {
	x := execRec{job: ji, lat: lat, err: err}
	if err == nil {
		x.stats = res.Stats
		x.out = digest(res.Batch, j.exact)
	}
	return x
}

// procs is the GOMAXPROCS every workload runs at.
func procs() int { return min(runtime.NumCPU(), 2) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runner drives one workload's clients against one engine.
type runner struct {
	w      workload
	e      *spilly.Engine
	orders *orders
	all    []execRec // every execution, kept for checking after the timed work
}

// round runs one closed-loop round: each client sends every job once, in its
// own seeded order, the next when the previous returns. Results are reduced
// to their outcomes outside every timed interval: a single client does it
// between executions, with wall and CPU bracketed per execution (its wide
// results must not pile up); several clients keep their small TPC-H results
// until the round's wall and CPU bracket has closed.
func (r *runner) round(run func(client int, j job) (*spilly.Result, error)) roundRec {
	ord := r.orders.next()
	var rec roundRec
	if len(ord) == 1 {
		for _, ji := range ord[0] {
			j := r.w.jobs[ji]
			cpu0, t0 := cpuTime(), time.Now()
			res, err := run(0, j)
			lat := time.Since(t0)
			rec.cpu += cpuTime() - cpu0
			rec.wall += lat
			rec.execs = append(rec.execs, newExec(ji, j, lat, res, err))
		}
	} else {
		type held struct {
			ji  int
			lat time.Duration
			res *spilly.Result
			err error
		}
		perClient := make([][]held, len(ord))
		var wg sync.WaitGroup
		cpu0, t0 := cpuTime(), time.Now()
		for c := range ord {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, ji := range ord[c] {
					q0 := time.Now()
					res, err := run(c, r.w.jobs[ji])
					perClient[c] = append(perClient[c], held{ji, time.Since(q0), res, err})
				}
			}(c)
		}
		wg.Wait()
		rec.wall, rec.cpu = time.Since(t0), cpuTime()-cpu0
		for _, hs := range perClient {
			for _, h := range hs {
				rec.execs = append(rec.execs, newExec(h.ji, r.w.jobs[h.ji], h.lat, h.res, h.err))
			}
		}
	}
	r.all = append(r.all, rec.execs...)
	return rec
}

// plain is the untraced execution every end-to-end number comes from.
func (r *runner) plain(_ int, j job) (*spilly.Result, error) { return j.run(r.e) }

// window measures rounds until the time is up (or the test's cap is reached).
// Rounds are whole, so every sample covers the same queries.
func (r *runner) window(seconds float64, maxRounds int) []roundRec {
	start := time.Now()
	var rounds []roundRec
	for {
		rounds = append(rounds, r.round(r.plain))
		done := time.Since(start).Seconds() >= seconds
		if maxRounds > 0 {
			done = len(rounds) >= maxRounds
		}
		if done {
			return rounds
		}
	}
}

// setUp opens a fresh engine and loads the workload's tables, timed.
func setUp(w workload, sf float64) (*spilly.Engine, time.Duration, error) {
	t0 := time.Now()
	e, err := spilly.Open(w.cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	if err := e.LoadTPCH(sf, w.onArray); err != nil {
		return nil, 0, fmt.Errorf("load TPC-H: %w", err)
	}
	return e, time.Since(t0), nil
}

// check compares every execution of the run with a reference taken on an
// engine with no memory budget, which is built only now so that it neither
// disturbs the measured window nor counts towards peak_rss_mb.
//
// The reference for TPC-H keeps its tables in memory. The reference for the
// hand-built plans reads them from the table array: on in-memory tables those
// plans corrupt the table (ExtSort leases its input batch from the query's
// pool under the scan's schema; the scan points the batch's columns at table
// storage; the pool later hands that batch out as an output buffer), so the
// second plan to run would already see wrong rows. README.md has the details.
func (r *runner) check(sf float64) (attempted, failed int, problems []string, err error) {
	ref, _, err := setUp(workload{cfg: baseConfig(), onArray: r.w.jobs[0].q == 0}, sf)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("reference engine: %w", err)
	}
	want := make([]outcome, len(r.w.jobs))
	for ji, j := range r.w.jobs {
		res, err := j.run(ref)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("reference %s: %w", j.name, err)
		}
		want[ji] = digest(res.Batch, j.exact)
	}
	for _, x := range r.all {
		attempted++
		why := want[x.job].differs(x.out)
		if x.err != nil {
			why = x.err.Error()
		}
		if why != "" {
			failed++
			if len(problems) < 10 {
				problems = append(problems, r.w.jobs[x.job].name+": "+why)
			}
		}
	}
	return attempted, failed, problems, nil
}

// runWorkload is one run: set-up, warm-up, measured window, and with trace
// the layer measurements; then the check of every result.
func runWorkload(o options) (*record, *spanLog, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, errors.New("seconds must be positive")
	}
	runtime.GOMAXPROCS(procs())
	sf := w.sf * o.sfScale
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Metrics: metrics{}}
	m := rec.Metrics

	var spans *spanLog
	windowSeconds := o.seconds
	setups := 3
	if o.trace {
		// The traced run spends its time three ways: kernels and set-up
		// pieces, half a window for the counters, one traced round.
		spans = newSpanLog()
		defer spans.end(rootSpan)
		rep := o.kernelRep
		if rep == 0 {
			rep = time.Duration(o.seconds * float64(time.Millisecond))
		}
		if err := setUpLayers(m, w, sf, spans, int(kernelRows*o.sfScale), rep); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		windowSeconds = o.seconds / 2
		setups = 1
	}

	// Set-up, several times over: one engine load is too short to be steady.
	var e *spilly.Engine
	var setupS []float64
	for i := 0; i < setups; i++ {
		e = nil
		runtime.GC() // the previous engine's garbage is not this set-up's cost
		fresh, d, err := setUp(w, sf)
		if err != nil {
			return nil, nil, err
		}
		e = fresh
		setupS = append(setupS, d.Seconds())
	}

	r := &runner{w: w, e: e, orders: newOrders(o.seed, w.clients, len(w.jobs))}
	if o.maxRounds == 0 { // the smoke test measures nothing worth warming up for
		for i := 0; i < w.warmup; i++ {
			r.round(r.plain)
		}
	}
	before := takeSnapshot(e)
	rounds := r.window(windowSeconds, o.maxRounds)
	after := takeSnapshot(e)
	rss := peakRSSMB()

	rec.Rounds = len(rounds)
	for _, rd := range rounds {
		rec.WindowS += rd.wall.Seconds()
		rec.Executions += len(rd.execs)
	}
	if o.trace {
		layerCounters(m, w, e, rounds, before, after)
		rec.Warnings = tracedRound(m, r, rounds, spans)
		minQuery(m, e)
	} else {
		endToEnd(m, w, rounds, setupS, rss)
	}

	var err error
	rec.Attempted, rec.Failed, rec.Problems, err = r.check(sf)
	if err != nil {
		return nil, nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, spans, nil
}

// endToEnd fills in the numbers a user of the engine would see. Rates are
// taken per round and the median over rounds is reported, so one slow round
// does not move them; latency percentiles and per-type medians pool every
// execution of the window.
func endToEnd(m metrics, w workload, rounds []roundRec, setupS []float64, rssMB float64) {
	var tps, cpuPerTuple, lats []float64
	for _, rd := range rounds {
		var tuples float64
		for _, x := range rd.execs {
			tuples += float64(x.stats.ScannedRows)
			lats = append(lats, ms(x.lat))
		}
		tps = append(tps, ratio(tuples, rd.wall.Seconds()))
		cpuPerTuple = append(cpuPerTuple, ratio(float64(rd.cpu.Nanoseconds()), tuples))
	}
	var typeMedians []float64
	for _, v := range typeMedianMS(w, rounds) {
		typeMedians = append(typeMedians, v)
	}
	m.setSamples("setup_s", "s", setupS)
	m.setSamples("tuples_per_s", "tuples/s", tps)
	m.set("query_geomean_ms", "ms", geomean(typeMedians))
	m.set("query_p50_ms", "ms", percentile(lats, 0.5))
	m.set("query_p90_ms", "ms", percentile(lats, 0.9))
	m.set("slowest_query_ms", "ms", percentile(typeMedians, 1))
	m.setSamples("cpu_ns_per_tuple", "ns", cpuPerTuple)
	m.set("peak_rss_mb", "MB", rssMB)
}

// typeMedianMS is each job's median client-observed latency over the window.
func typeMedianMS(w workload, rounds []roundRec) map[string]float64 {
	byJob := make([][]float64, len(w.jobs))
	for _, rd := range rounds {
		for _, x := range rd.execs {
			byJob[x.job] = append(byJob[x.job], ms(x.lat))
		}
	}
	out := map[string]float64{}
	for ji, lats := range byJob {
		out[w.jobs[ji].name] = median(lats)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
