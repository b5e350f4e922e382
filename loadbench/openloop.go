package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Operation kinds of an open-loop track.
type opKind uint8

const (
	kOpen opKind = iota
	kStep
	kFeedback
	kClose
)

var kindNames = [...]string{"open", "step", "feedback", "close"}

// framesPerTrack is the length of every replayed test series.
const framesPerTrack = 10

// schedOp is one scheduled operation.
type schedOp struct {
	due  int64 // ns after the rung's start
	inst int32 // track
	kind opKind
	k    int8 // frame index within the track (step and feedback)
}

// track is one series lifetime: open, up to ten steps (some followed by their
// feedback), close. Its operations run strictly in order; the scheduler
// releases them at their due times and the track's chain runs them.
type track struct {
	sub  int32 // replayed test series
	conn int32 // connection the series is pinned to
	ops  []int32

	mu       sync.Mutex
	released int
	started  int
	busy     bool
	id       string
}

// plan is the precomputed schedule of one open-loop rung, sorted by due
// time. Only operations due inside [measureFrom, measureTo) are measured;
// the short lead-in lets every slot open its first series, the tail lets
// the last ones close.
type plan struct {
	rate                   float64 // offered steps per second
	ops                    []schedOp
	tracks                 []track
	measureFrom, measureTo int64
}

// makePlan lays out slots concurrent tracks replaying series picked from
// nSub test series at rate steps/s for window, each series pinned to one
// of nConn connections, with feedback for a fbFrac share of the steps.
// Each slot runs back-to-back tracks one frame period apart: open, the
// steps, feedback a third of a period after its step, close two thirds
// of a period after the last step, the next open a period after that.
// A slot's first track replays a random-length prefix of its series, so
// the slots' open/close churn is spread evenly from the first period on;
// tracks still running at the end of the window close early.
func makePlan(rng *rand.Rand, slots int, rate float64, window time.Duration, fbFrac float64, nSub, nConn int) *plan {
	period := float64(slots) * framesPerTrack / (framesPerTrack + 1) / rate * 1e9
	p := &plan{rate: rate, measureFrom: int64(2 * period)}
	p.measureTo = p.measureFrom + window.Nanoseconds()
	stop := float64(p.measureTo)
	for s := 0; s < slots; s++ {
		frames := 1 + rng.IntN(framesPerTrack)
		for base := rng.Float64() * period; base+period < stop; {
			ti := int32(len(p.tracks))
			p.tracks = append(p.tracks, track{sub: int32(rng.IntN(nSub)), conn: int32(rng.IntN(nConn))})
			p.ops = append(p.ops, schedOp{due: int64(base), inst: ti, kind: kOpen})
			k := 0
			for ; k < frames && base+float64(k+1)*period < stop; k++ {
				at := base + float64(k+1)*period
				p.ops = append(p.ops, schedOp{due: int64(at), inst: ti, kind: kStep, k: int8(k)})
				if rng.Float64() < fbFrac {
					p.ops = append(p.ops, schedOp{due: int64(at + period/3), inst: ti, kind: kFeedback, k: int8(k)})
				}
			}
			p.ops = append(p.ops, schedOp{due: int64(base + float64(k)*period + 2*period/3), inst: ti, kind: kClose})
			base += float64(frames+1) * period
			frames = framesPerTrack
		}
	}
	slices.SortStableFunc(p.ops, func(a, b schedOp) int {
		switch {
		case a.due < b.due:
			return -1
		case a.due > b.due:
			return 1
		}
		return 0
	})
	for i, op := range p.ops {
		t := &p.tracks[op.inst]
		t.ops = append(t.ops, int32(i))
	}
	return p
}

func (p *plan) measured(op *schedOp) bool {
	return op.due >= p.measureFrom && op.due < p.measureTo
}

// engine executes one plan against a transport and checks every answer
// against the reference table.
type engine struct {
	plan   *plan
	tr     transport
	table  [][]expect
	series [][]frame
	mism   *mismatches
	spans  *spanLog
	opBase uint64 // span op ids of this rung start here

	start time.Time
	lat   []int64 // due → decoded response, ns; failed ops hold math.MaxInt64
	svc   []int64 // call → decoded response, ns
	late  []int64 // due → release by the scheduler, ns

	deferred atomic.Int64
	errMu    sync.Mutex
	firstErr error
	keepOnce atomic.Bool
	capture  *capture
	wg       sync.WaitGroup
}

// rungResult summarises one executed rung.
type rungResult struct {
	rate              float64
	steps, feedback   summary
	stepCall          summary // client call time of steps
	late              summary
	attempted, failed int
	deferred          int
	drain             time.Duration // last due → last completion
	completedRate     float64       // measured steps completed per second of measuring
}

// The scheduler keeps its P through every sleep, so the runtime would
// preempt it after 10 ms of apparent running, at an arbitrary moment. It
// yields on its own instead, at most every yieldEvery and only when the
// next release is at least yieldSlack away.
const (
	yieldEvery = int64(4 * time.Millisecond)
	yieldSlack = int64(200 * time.Microsecond)
)

// lateLimit is the share of the latency limit the generator may run late
// at p99 before its rung is invalid.
const lateLimit = 0.5

// latencyLimit is the step p99 a rung must meet: a third of a 30 fps frame.
const latencyLimit = 10 * time.Millisecond

func (r *rungResult) valid() bool {
	return r.late.p99 <= lateLimit*float64(latencyLimit.Microseconds())
}

// sustained reports whether the rung met the latency limit without a
// growing backlog (all work done within the limit of the last due time).
func (r *rungResult) sustained() bool {
	return r.failed == 0 && r.valid() && r.steps.p99 <= float64(latencyLimit.Microseconds()) &&
		r.drain <= latencyLimit
}

// setRealtime makes the calling thread's sleeps precise: 1 ns of timer
// slack instead of 50 µs, and the lowest real-time priority, so a wake-up
// preempts the server's and the chains' threads instead of waiting out
// their time slice. Both are best effort (the priority needs
// CAP_SYS_NICE); without them the generator only runs later, and its
// lateness is measured either way.
func setRealtime() {
	const prSetTimerSlack, schedFIFO = 29, 1
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	prio := int32(1)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&prio)))
}

// nanosleep sleeps the calling thread without leaving the Go scheduler:
// a raw syscall keeps this goroutine's P, so the scheduler resumes the
// instant the kernel wakes it instead of queueing for a P behind the
// operations it released. EINTR returns early; the caller re-checks the
// clock.
func nanosleep(d int64) {
	ts := syscall.NsecToTimespec(d)
	_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// run executes the plan and summarises it. The schedule is walked by
// one goroutine on a thread of its own (see schedule), with the
// generator's collector off: it would stall the scheduler and the chains
// mid-rung, and a rung allocates little (the memory limit set in main
// still bounds the heap).
func (e *engine) run() rungResult {
	n := len(e.plan.ops)
	e.lat = make([]int64, n)
	e.svc = make([]int64, n)
	e.late = make([]int64, n)
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	e.start = time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Never unlocked: the thread carries the real-time class, so it
		// exits with this goroutine instead of returning to the runtime.
		runtime.LockOSThread()
		setRealtime()
		e.schedule()
	}()
	<-done
	lastDue := time.Duration(e.plan.ops[n-1].due)
	e.wg.Wait()
	return e.result(time.Since(e.start) - lastDue)
}

// schedule walks the schedule. It sleeps in nanosleep (the Go timer wheel
// rounds sub-millisecond sleeps of an idle process up to 1 ms), releases
// every operation at its due time, and starts a track's chain when the
// track is idle; an operation due while its track's previous one is in
// flight is deferred and runs from the chain as soon as that one returns.
func (e *engine) schedule() {
	var yielded int64
	for i := range e.plan.ops {
		op := &e.plan.ops[i]
		for {
			now := time.Since(e.start).Nanoseconds()
			d := op.due - now
			if d <= 0 {
				break
			}
			if d > yieldSlack && now-yielded > yieldEvery {
				runtime.Gosched()
				yielded = now
				continue
			}
			nanosleep(d)
		}
		e.late[i] = time.Since(e.start).Nanoseconds() - op.due
		t := &e.plan.tracks[op.inst]
		t.mu.Lock()
		t.released++
		if t.busy {
			t.mu.Unlock()
			if op.kind == kStep && e.plan.measured(op) {
				e.deferred.Add(1)
			}
			continue
		}
		t.busy = true
		j := t.started
		t.started++
		t.mu.Unlock()
		e.wg.Add(1)
		go e.chain(t, j)
	}
}

// chain runs the track's released operations in order, starting at its
// j-th, until it catches up with the scheduler.
func (e *engine) chain(t *track, j int) {
	defer e.wg.Done()
	for {
		e.exec(t, t.ops[j])
		t.mu.Lock()
		if t.started < t.released {
			j = t.started
			t.started++
			t.mu.Unlock()
			continue
		}
		t.busy = false
		t.mu.Unlock()
		return
	}
}

var errNotOpen = errors.New("series was never opened")

func (e *engine) exec(t *track, i int32) {
	op := &e.plan.ops[i]
	conn := int(t.conn)
	callStart := time.Since(e.start).Nanoseconds()
	var err error
	switch op.kind {
	case kOpen:
		t.id, err = e.tr.open(conn)
	case kStep:
		if t.id == "" {
			err = errNotOpen
			break
		}
		keep := e.keepOnce.CompareAndSwap(false, true)
		got, raw, serr := e.tr.step(conn, t.id, int(t.sub), int(op.k), keep)
		err = serr
		if err != nil {
			break
		}
		want := e.table[t.sub][op.k]
		if cerr := checkStep(got, want); cerr != nil {
			e.mism.add("series %s (test series %d) step %d: %v", t.id, t.sub, op.k+1, cerr)
		}
		if keep {
			e.capture = &capture{raw: raw, decode: e.tr.decodeRaw, want: want, uOffset: e.tr.uOffset(raw)}
		}
	case kFeedback:
		if t.id == "" {
			err = errNotOpen
			break
		}
		truth := e.series[t.sub][op.k].truth
		got, ferr := e.tr.feedback(conn, t.id, int(op.k)+1, truth)
		err = ferr
		if err == nil {
			if cerr := checkFeedback(got, e.table[t.sub][op.k], truth); cerr != nil {
				e.mism.add("series %s (test series %d) feedback %d: %v", t.id, t.sub, op.k+1, cerr)
			}
		}
	case kClose:
		if t.id == "" {
			err = errNotOpen
			break
		}
		err = e.tr.close(conn, t.id)
	}
	end := time.Since(e.start).Nanoseconds()
	e.svc[i] = end - callStart
	e.lat[i] = end - op.due
	if err != nil {
		e.lat[i] = math.MaxInt64
		e.errMu.Lock()
		if e.firstErr == nil {
			e.firstErr = err
		}
		e.errMu.Unlock()
	}
	if id := e.opBase + uint64(i); e.spans.sampled(id) {
		root := spanID(id, 1)
		name := kindNames[op.kind]
		at := func(ns int64) int64 { return e.spans.ns(e.start.Add(time.Duration(ns))) }
		e.spans.add(span{op: id, id: root, name: "op." + name, start: at(op.due), end: at(end)})
		e.spans.add(span{op: id, id: spanID(id, 2), parent: root, name: "gen.queue", start: at(op.due), end: at(callStart)})
		e.spans.add(span{op: id, id: spanID(id, 3), parent: root, name: "client." + name, start: at(callStart), end: at(end)})
	}
}

// windowSamples is the least number of steps a latency window holds, so
// its p99 has at least twenty samples beyond it.
const windowSamples = 2000

func (e *engine) result(drain time.Duration) rungResult {
	r := rungResult{rate: e.plan.rate, drain: drain, deferred: int(e.deferred.Load())}
	// Latency percentiles are taken per window of at least a second and
	// windowSamples steps, and the median over the windows is reported:
	// a stall of the shared machine then moves one window, not the run.
	width := max(int64(time.Second), int64(windowSamples/e.plan.rate*1e9))
	nWin := max(1, int((e.plan.measureTo-e.plan.measureFrom)/width))
	steps := make([]latencies, nWin)
	fbs := make([]latencies, nWin)
	var calls, late latencies
	lastDone := e.plan.measureFrom
	for i := range e.plan.ops {
		op := &e.plan.ops[i]
		if !e.plan.measured(op) {
			continue
		}
		w := min(nWin-1, int((op.due-e.plan.measureFrom)/width))
		r.attempted++
		late = append(late, e.late[i])
		if e.lat[i] == math.MaxInt64 {
			r.failed++
		}
		switch op.kind {
		case kStep:
			steps[w] = append(steps[w], e.lat[i])
			if e.lat[i] != math.MaxInt64 {
				calls = append(calls, e.svc[i])
				lastDone = max(lastDone, op.due+e.lat[i])
			}
		case kFeedback:
			fbs[w] = append(fbs[w], e.lat[i])
		}
	}
	r.steps, r.feedback = windowed(steps), windowed(fbs)
	r.stepCall, r.late = summarize(calls), summarize(late)
	// Completed steps over the time from the window's start to the last
	// of them answering: a backlog stretches the denominator.
	if len(calls) > 0 {
		r.completedRate = float64(len(calls)) / (float64(lastDone-e.plan.measureFrom) / 1e9)
	}
	return r
}
