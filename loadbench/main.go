// Command loadbench is the repository's end-to-end serving benchmark. It
// builds cmd/tauserve from the checkout, starts it, drives it over
// loopback from this one process with one of three workloads, checks every
// served number against an in-process reference replay, and prints the
// metrics as one JSON object on the last line of standard output (a
// readable report goes to standard error).
//
// Usage, from the repository root:
//
//	bash loadbench/run.sh --workload stream-wire --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics: server-side deltas from /metrics, client
// spans around every call, and an in-process ladder that times each
// layer's public functions on the workload's recorded steps. See
// README.md for the workloads and what every metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// conns is the number of client connections (and generator threads):
// the benchmark machine's two CPUs.
const conns = 2

// Workload shapes.
const (
	streamSlots    = 1024
	streamFeedback = 0.25
	durableSlots   = 64
	durableRate    = 2000
	fleetSize      = 16384
	batchItems     = 512
	fleetRing      = 64
	setupStarts    = 5
	spanEvery      = 16 // traced runs keep spans of one operation in spanEvery
)

// streamRates is the offered-rate ladder of stream-wire in steps/s;
// latencies are reported at streamNamedRung.
var streamRates = []float64{10000, 20000, 60000}

const streamNamedRung = 0

type workload struct {
	name        string
	serverFlags []string
	durable     bool
	bufferLimit int
	ladder      ladderSpec
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"stream-wire", "batch-http", "durable-http"}

var workloads = map[string]*workload{
	"stream-wire": {
		name:   "stream-wire",
		ladder: ladderSpec{live: streamSlots, fresh: true, fbFrac: streamFeedback, wire: true},
	},
	"batch-http": {
		name:        "batch-http",
		serverFlags: []string{"-buffer-limit", fmt.Sprint(fleetRing)},
		bufferLimit: fleetRing,
		ladder:      ladderSpec{live: fleetSize, prefill: fleetRing, bufferLimit: fleetRing, batch: batchItems},
	},
	"durable-http": {
		name:        "durable-http",
		serverFlags: []string{"-flush-interval", "100ms", "-checkpoint-interval", "5s"},
		durable:     true,
		ladder:      ladderSpec{live: durableSlots, fresh: true, fbFrac: 1},
	},
}

// metricUnits names every reported metric's unit.
var metricUnits = map[string]string{
	"setup_s":                      "s",
	"step_p50_us":                  "us",
	"step.p99_us":                  "us",
	"items_per_s":                  "items/s",
	"server_cpu_us_per_step":       "us",
	"server_peak_rss_mb":           "MiB",
	"feedback.p99_us":              "us",
	"dtree.predict_ns":             "ns",
	"uw.estimate_ns":               "ns",
	"core.buffer_append_ns":        "ns",
	"core.features_at_ns":          "ns",
	"core.wrapper_step_ns":         "ns",
	"core.wrapper_self_ns":         "ns",
	"core.pool_step_ns":            "ns",
	"core.pool_batch_item_ns":      "ns",
	"core.pool_open_close_ns":      "ns",
	"core.take_feedback_ns":        "ns",
	"monitor.observe_ns":           "ns",
	"monitor.leaf_observe_ns":      "ns",
	"trace.overhead_ns":            "ns",
	"wire.step_codec_ns":           "ns",
	"tauserve.handler_us.step":     "us",
	"tauserve.handler_us.steps":    "us",
	"tauserve.handler_us.feedback": "us",
	"tauserve.decode_us":           "us",
	"tauserve.step_us":             "us",
	"tauserve.encode_us":           "us",
	"tauserve.shed_total":          "count",
	"transport.wire_overhead_us":   "us",
	"transport.http_overhead_us":   "us",
	"store.append_us":              "us",
	"store.fsync_us":               "us",
	"store.checkpoint_ms":          "ms",
	"store.wal_bytes_per_step":     "B",
	"store.errors":                 "count",
	"runtime.gc_per_kstep":         "count",
	"runtime.heap_mb":              "MiB",
	"gen.late_p99_us":              "us",
	"gen.deferred_steps":           "count",
	"gen.anchor_ns":                "ns",
	"bench.span_overhead_us":       "us",
}

// endToEnd lists the --trace 0 metrics; every other metric is per-layer.
var endToEnd = []string{"setup_s", "step_p50_us", "items_per_s",
	"server_cpu_us_per_step", "server_peak_rss_mb"}

func main() {
	var (
		name    = flag.String("workload", "", "stream-wire, batch-http or durable-http")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 16, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = per-layer run with spans and the in-process ladder")
	)
	flag.Parse()
	// Open-loop rungs run with the collector off; this bounds the heap.
	debug.SetMemoryLimit(2 << 30)
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	if _, ok := workloads[names[0]]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "loadbench: need --workload stream-wire|batch-http|durable-http|all, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	// One JSON line per workload; with "all" a failed or incorrect
	// workload fails the command after the others have run.
	code := 0
	for _, name := range names {
		res, err := benchmark(workloads[name], *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err == nil {
			var out []byte
			if out, err = json.Marshal(res); err == nil {
				fmt.Println(string(out))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %s: %v\n", name, err)
			code = 1
		} else if !res.Correct && len(names) > 1 {
			code = 1
		}
	}
	os.Exit(code)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// e2e is what one pass of a workload measured from the client side.
type e2e struct {
	stepP50, stepP99 float64 // µs; one step-carrying request
	feedbackP99      float64 // µs
	itemsPerS        float64
	stepCallMean     float64 // µs; mean client call time of a step request
	attempted        int
	failed           int
	firstErr         error
	lateP99          float64
	deferred         int
	invalid          string  // why the generator's numbers cannot be trusted
	peakRSS          float64 // MiB; 0 = read the server's VmHWM at the end
	capture          *capture
	// from and to sample the server around the measured phase; cpuFrom
	// and cpuTo around the phase server_cpu_us_per_step is taken over,
	// when that differs (stream-wire).
	from, to, cpuFrom, cpuTo serverSample
}

// serverSample is the server's exposition and CPU time at one instant.
type serverSample struct {
	expo exposition
	cpu  float64 // seconds
}

func (e *env) sample() (serverSample, error) {
	expo, err := scrape(e.probe, e.srv.httpBase)
	if err != nil {
		return serverSample{}, err
	}
	cpu, err := cpuSeconds(e.srv.cmd.Process.Pid)
	return serverSample{expo: expo, cpu: cpu}, err
}

// env is one benchmark run's shared state.
type env struct {
	w        *workload
	ref      *reference
	rng      *rand.Rand
	srv      *serverProc
	mism     *mismatches
	frags    [][]string
	table    [][]expect
	report   *strings.Builder
	probe    *http.Client // scrapes /metrics
	traced   bool         // per-layer run: both halves run the named rung only
	began    time.Time    // program start, for runBudget
	batchers []*batcher
	wire     *wireTransport
}

func benchmark(w *workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	began := time.Now()
	report := &strings.Builder{}
	defer func() { fmt.Fprint(os.Stderr, report.String()) }()
	fmt.Fprintf(report, "loadbench %s seed=%d seconds=%v trace=%v\n", w.name, seed, window.Seconds(), traced)

	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(w.name))
	e := &env{w: w, ref: ref, rng: rand.New(rand.NewPCG(seed, h.Sum64())), mism: &mismatches{},
		frags: fragments(ref.series), report: report, traced: traced, probe: newHTTPClient(1), began: began}
	if e.table, err = ref.freshTable(w.bufferLimit); err != nil {
		return nil, err
	}
	anchor := anchorNanos()
	// Settle the generator's heap before timing server start-up, so its
	// collector does not compete with calibration.
	runtime.GC()

	// Set-up time: exec to /readyz, several starts, median; the last
	// server started serves the run.
	var setups []float64
	for n := 0; n < setupStarts; n++ {
		srv, took, err := startServer(bin, w, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if n < setupStarts-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		e.srv = srv
	}
	defer func() {
		if e.wire != nil {
			e.wire.shutdown()
		}
		if e.srv != nil {
			e.srv.stop()
		}
	}()
	metrics := map[string]float64{"setup_s": median(setups), "gen.anchor_ns": anchor}

	if err := e.prepare(); err != nil {
		return nil, err
	}

	var got, untraced e2e
	var spans *spanLog
	if traced {
		// Half the window without spans, half with: the difference of the
		// two step medians is the span recording's own cost.
		half := window / 2
		if untraced, err = e.run(half, nil); err != nil {
			return nil, err
		}
		spans = newSpanLog(spanEvery, 1<<20)
		if got, err = e.run(half, spans); err != nil {
			return nil, err
		}
		got.attempted += untraced.attempted
		got.failed += untraced.failed
		got.from = untraced.from
		if got.invalid == "" {
			got.invalid = untraced.invalid
		}
		if got.firstErr == nil {
			got.firstErr = untraced.firstErr
		}
		metrics["bench.span_overhead_us"] = got.stepP50 - untraced.stepP50
	} else if got, err = e.run(window, nil); err != nil {
		return nil, err
	}

	before, after := got.from.expo, got.to.expo
	rss := got.peakRSS
	if rss == 0 {
		if rss, err = peakRSSMiB(e.srv.cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	served := delta(before, after, "tauw_steps_total")
	if served <= 0 {
		return nil, errors.New("the server counted no steps")
	}
	metrics["step_p50_us"] = got.stepP50
	metrics["step.p99_us"] = got.stepP99
	metrics["items_per_s"] = got.itemsPerS
	cpuFrom, cpuTo := got.from, got.to
	if got.cpuTo.expo != nil {
		cpuFrom, cpuTo = got.cpuFrom, got.cpuTo
	}
	metrics["server_cpu_us_per_step"] = (cpuTo.cpu - cpuFrom.cpu) /
		delta(cpuFrom.expo, cpuTo.expo, "tauw_steps_total") * 1e6
	metrics["server_peak_rss_mb"] = rss
	metrics["feedback.p99_us"] = got.feedbackP99
	metrics["gen.late_p99_us"] = got.lateP99
	metrics["gen.deferred_steps"] = float64(got.deferred)
	serverLayers(before, after, served, metrics)
	switch w.name {
	case "stream-wire":
		metrics["transport.wire_overhead_us"] = got.stepCallMean - metrics["tauserve.handler_us.step"]
	case "batch-http":
		metrics["transport.http_overhead_us"] = got.stepCallMean - metrics["tauserve.handler_us.steps"]
	default:
		metrics["transport.http_overhead_us"] = got.stepCallMean - metrics["tauserve.handler_us.step"]
	}

	if traced {
		if err := runLadder(ref, w.ladder, e.rng, spans, metrics); err != nil {
			return nil, err
		}
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := spans.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(report, "spans: %d kept (%d dropped) in %s\n", len(spans.spans), spans.dropped, path)
		fmt.Fprintf(report, "  %-36s %8s %12s %12s\n", "span", "count", "mean_us", "self_us")
		for _, st := range spans.selfTimes() {
			fmt.Fprintf(report, "  %-36s %8d %12.3f %12.3f\n", st.name, st.count, st.meanMicros(), st.selfMicros())
		}
	}

	correct := true
	if n := e.mism.count(); n > 0 {
		correct = false
		fmt.Fprintf(report, "REFERENCE MISMATCHES: %d\n", n)
		for _, m := range e.mism.first {
			fmt.Fprintf(report, "  %s\n", m)
		}
	} else {
		fmt.Fprintln(report, "reference mismatches: 0")
	}
	if err := selfTest(got.capture); err != nil {
		correct = false
		fmt.Fprintf(report, "SELF-TEST FAILED: %v\n", err)
	} else {
		fmt.Fprintln(report, "self-test: a one-ulp expected value and a corrupted response byte were both caught")
	}
	if got.invalid != "" {
		correct = false
		fmt.Fprintf(report, "INVALID RUN: %s\n", got.invalid)
	}
	if got.firstErr != nil {
		fmt.Fprintf(report, "first failed operation: %v\n", got.firstErr)
	}

	srv := e.srv
	e.srv = nil
	if e.wire != nil {
		e.wire.shutdown()
		e.wire = nil
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping tauserve: %w", err)
	}

	res := &result{Correct: correct, Attempted: got.attempted, Failed: got.failed, Metrics: map[string]metricValue{}}
	keep := func(name string) bool {
		for _, m := range endToEnd {
			if m == name {
				return !traced
			}
		}
		return traced
	}
	names := make([]string, 0, len(metricUnits))
	for name := range metricUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(report, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		v := metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		if !keep(name) {
			continue
		}
		res.Metrics[name] = metricValue{Value: v, Unit: metricUnits[name]}
		fmt.Fprintf(report, "  %-30s %14.4f %s\n", name, v, metricUnits[name])
	}
	return res, nil
}

// serverLayers derives the server-side per-layer metrics from the change
// of the /metrics exposition over the run.
func serverLayers(before, after exposition, served float64, m map[string]float64) {
	const req = "tauw_request_duration_seconds"
	const stage = "tauw_stage_duration_seconds"
	for _, ep := range []string{"step", "steps", "feedback"} {
		m["tauserve.handler_us."+ep] = meanDelta(before, after, req, `{endpoint="`+ep+`"}`, 1e6)
	}
	for _, st := range []string{"decode", "step", "encode"} {
		m["tauserve."+st+"_us"] = meanDelta(before, after, stage, `{stage="`+st+`"}`, 1e6)
	}
	m["tauserve.shed_total"] = sumMatching(before, after, "tauw_shed_total")
	m["store.append_us"] = meanDelta(before, after, stage, `{stage="store_append"}`, 1e6)
	m["store.fsync_us"] = meanDelta(before, after, stage, `{stage="fsync"}`, 1e6)
	m["store.checkpoint_ms"] = meanDelta(before, after, stage, `{stage="checkpoint"}`, 1e3)
	m["store.wal_bytes_per_step"] = delta(before, after, "tauw_checkpoint_wal_bytes_total") / served
	m["store.errors"] = delta(before, after, "tauw_store_errors_total") + delta(before, after, "tauw_checkpoint_errors_total")
	m["runtime.gc_per_kstep"] = delta(before, after, "tauw_go_gc_cycles_total") / served * 1000
	m["runtime.heap_mb"] = after["tauw_go_heap_bytes"] / (1 << 20)
}

// prepare does the untimed per-workload set-up on the running server.
func (e *env) prepare() error {
	switch e.w.name {
	case "stream-wire":
		t, err := dialWire(e.srv.wireAddr, conns, e.ref.series)
		if err != nil {
			return err
		}
		e.wire = t
		return nil
	case "batch-http":
		return e.prepareFleet()
	}
	return nil
}

// run executes one measured pass of the workload.
func (e *env) run(window time.Duration, spans *spanLog) (e2e, error) {
	switch e.w.name {
	case "stream-wire":
		return e.runStream(window, spans)
	case "batch-http":
		return e.runBatch(window, spans)
	default:
		return e.runDurable(window, spans)
	}
}

// runStream walks the rate ladder over the binary transport; a traced
// run measures the named rung only.
func (e *env) runStream(window time.Duration, spans *spanLog) (e2e, error) {
	rates := streamRates
	named := streamNamedRung
	if e.traced {
		rates, named = streamRates[streamNamedRung:streamNamedRung+1], 0
	}
	// The named rung gets 60% of the window, the others share the rest.
	per := func(i int) time.Duration {
		if len(rates) == 1 {
			return window
		}
		if i == named {
			return window * 3 / 5
		}
		return window * 2 / 5 / time.Duration(len(rates)-1)
	}
	var out e2e
	var best *attempt
	e.rungHeader()
	for i, rate := range rates {
		attempts := 1
		if i == named {
			attempts = rungAttempts
		}
		a, err := e.measure(attempts, &out, func(n int) *engine {
			p := makePlan(e.rng, streamSlots, rate, per(i), streamFeedback, len(e.ref.series), conns)
			return &engine{plan: p, tr: e.wire, table: e.table, series: e.ref.series, mism: e.mism,
				spans: spans, opBase: uint64(i*rungAttempts+n+1) << 32}
		})
		if err != nil {
			return out, err
		}
		// The server's CPU per step is taken at the highest rung, where it
		// is busy: at lighter rungs idle wake-ups dominate it, and they vary
		// with the machine more than with the code.
		out.cpuFrom, out.cpuTo = a.from, a.to
		if a.sustained() {
			best = a
		}
		if i == named {
			e.keepLatencies(&out, a)
			// The overloaded rung above leaves a backlog-sized heap behind;
			// peak memory is read where the latencies are.
			if out.peakRSS, err = peakRSSMiB(e.srv.cmd.Process.Pid); err != nil {
				return out, err
			}
		}
	}
	if best != nil {
		out.itemsPerS = best.completedRate
	}
	return out, nil
}

// rungAttempts bounds how often a rung whose generator ran late is
// measured, and runBudget how long the attempts may take altogether, so a
// run ends well inside three minutes; retryLate is the share of the
// latency limit above which the generator's p99 lateness sends a rung
// round again, after retryPause.
const (
	rungAttempts = 8
	runBudget    = 140 * time.Second
	retryLate    = 0.2
	retryPause   = time.Second
)

// attempt is one measured run of a rung.
type attempt struct {
	rungResult
	from, to serverSample
}

// measure runs a rung up to attempts times, each on a fresh plan from mk,
// until the generator's p99 lateness stays within retryLate of the
// latency limit or another attempt would overrun runBudget, and returns
// the attempt whose generator ran least late: a stall of the shared
// machine then costs a re-run, not a wrong number. Every attempt's
// operations count as attempted, and its failures as failed.
func (e *env) measure(attempts int, out *e2e, mk func(n int) *engine) (*attempt, error) {
	var best *attempt
	var took time.Duration
	for n := 0; n < attempts; n++ {
		if n > 0 {
			if time.Since(e.began)+retryPause+took > runBudget {
				break
			}
			time.Sleep(retryPause)
		}
		began := time.Now()
		en := mk(n)
		genCPU, err := cpuSeconds(os.Getpid())
		if err != nil {
			return nil, err
		}
		from, err := e.sample()
		if err != nil {
			return nil, err
		}
		r := en.run()
		to, err := e.sample()
		if err != nil {
			return nil, err
		}
		genCPU2, err := cpuSeconds(os.Getpid())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(e.report, "  %-8.0f %9.0f %9.1f %9.1f %9.1f %9.1f %9.1f %8d %8.2f %8.2f %v (p%.2f of %d)\n",
			r.rate, r.completedRate, r.steps.p50, r.steps.p99, r.steps.top, r.feedback.p99, r.late.p99,
			r.deferred, float64(r.drain.Microseconds())/1e3, genCPU2-genCPU, r.sustained(),
			r.steps.topQ*100, r.steps.n)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = en.firstErr
		}
		if out.capture == nil {
			out.capture = en.capture
		}
		took = time.Since(began)
		if best == nil || r.late.p99 < best.late.p99 {
			best = &attempt{rungResult: r, from: from, to: to}
		}
		if r.late.p99 <= retryLate*float64(latencyLimit.Microseconds()) {
			break
		}
	}
	return best, nil
}

func (e *env) rungHeader() {
	fmt.Fprintf(e.report, "  %-8s %9s %9s %9s %9s %9s %9s %8s %8s %8s %s\n", "rate", "steps/s", "p50_us",
		"p99_us", "top_us", "fb_p99", "late_p99", "deferred", "drain_ms", "gen_cpu", "sustained")
}

// keepLatencies reports a as the run's latency rung.
func (e *env) keepLatencies(out *e2e, a *attempt) {
	out.stepP50, out.stepP99, out.feedbackP99 = a.steps.p50, a.steps.p99, a.feedback.p99
	out.lateP99, out.deferred = a.late.p99, a.deferred
	out.stepCallMean = a.stepCall.meanMicros
	out.from, out.to = a.from, a.to
	if !a.valid() {
		out.invalid = fmt.Sprintf("generator p99 lateness %.0f us exceeds %.0f%% of the %v limit in every attempt",
			a.late.p99, lateLimit*100, latencyLimit)
	}
}

// runDurable drives the HTTP API at a fixed rate with feedback after
// every step, against a server persisting its state.
func (e *env) runDurable(window time.Duration, spans *spanLog) (e2e, error) {
	t := newHTTPTransport(e.srv.httpBase, conns, e.frags)
	defer t.client.CloseIdleConnections()
	base := uint64(1) << 32
	if spans != nil {
		base = 2 << 32
	}
	var out e2e
	e.rungHeader()
	a, err := e.measure(rungAttempts, &out, func(n int) *engine {
		p := makePlan(e.rng, durableSlots, durableRate, window, 1, len(e.ref.series), conns)
		return &engine{plan: p, tr: t, table: e.table, series: e.ref.series, mism: e.mism, spans: spans,
			opBase: base + uint64(n)<<36}
	})
	if err != nil {
		return out, err
	}
	e.keepLatencies(&out, a)
	out.itemsPerS = a.completedRate
	return out, nil
}
