package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/iese-repro/tauw/internal/core"
)

// fleet is the batch-http working set: many long-lived series, each
// replaying a seeded walk through the test series back to back, so its
// history runs far past the server's ring and evicts.
type fleet struct {
	ref   *reference
	frags [][]string
	ids   []string
	start []int32 // first test series of each series' walk
	steps []int32 // steps sent so far
	wraps []*core.Wrapper
}

func newFleet(ref *reference, frags [][]string, rng *rand.Rand, size, bufferLimit int) (*fleet, error) {
	f := &fleet{ref: ref, frags: frags, ids: make([]string, size), start: make([]int32, size),
		steps: make([]int32, size), wraps: make([]*core.Wrapper, size)}
	for i := range f.start {
		f.start[i] = int32(rng.IntN(len(ref.series)))
		w, err := ref.newWrapper(bufferLimit)
		if err != nil {
			return nil, err
		}
		f.wraps[i] = w
	}
	return f, nil
}

// walkFrame locates step n of a long series that replays the nSeries
// test series back to back, starting at test series start.
func walkFrame(nSeries, start, n int) (sub, k int) {
	return (start + n/framesPerTrack) % nSeries, n % framesPerTrack
}

// frameOf locates step n of series i in the recorded data.
func (f *fleet) frameOf(i int, n int32) (sub, k int) {
	return walkFrame(len(f.ref.series), int(f.start[i]), int(n))
}

// openAll opens every series over the HTTP API, split across conns.
func (f *fleet) openAll(client *http.Client, base string, conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(f.ids); i += conns {
				body, err := doHTTP(client, "POST", base+"/v1/series", nil, http.StatusCreated)
				if err == nil {
					f.ids[i], err = decodeSeriesID(body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("opening series %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batcher is one closed-loop connection of the batch workload: it owns
// the series i ≡ conn (mod conns), so each series' steps leave in order.
type batcher struct {
	f      *fleet
	client *http.Client
	url    string
	owned  []int
	rng    *rand.Rand
	mism   *mismatches
	spans  *spanLog
	opBase uint64

	body    bytes.Buffer
	resp    []batchItem
	picked  []int
	mark    []uint32
	batchNo uint32

	lat    latencies // per request, encode start → decoded response
	post   latencies // per request, HTTP round trip only
	items  int
	failed int

	capture *capture
}

func newBatcher(f *fleet, client *http.Client, base string, conn, conns int, rng *rand.Rand,
	mism *mismatches, spans *spanLog) *batcher {
	b := &batcher{f: f, client: client, url: base + "/v1/steps", rng: rng, mism: mism, spans: spans,
		opBase: uint64(conn) << 40, mark: make([]uint32, len(f.ids))}
	for i := conn; i < len(f.ids); i += conns {
		b.owned = append(b.owned, i)
	}
	return b
}

// pick draws n distinct owned series.
func (b *batcher) pick(n int) {
	b.batchNo++
	b.picked = b.picked[:0]
	for len(b.picked) < n {
		i := b.owned[b.rng.IntN(len(b.owned))]
		if b.mark[i] == b.batchNo {
			continue
		}
		b.mark[i] = b.batchNo
		b.picked = append(b.picked, i)
	}
}

// prefillPick selects the series for the round-robin prefill batch
// starting at owned position from.
func (b *batcher) prefillPick(from, n int) {
	b.picked = b.picked[:0]
	for j := from; j < from+n && j < len(b.owned); j++ {
		b.picked = append(b.picked, b.owned[j])
	}
}

// encode renders the picked series' next steps as one request body.
func (b *batcher) encode() {
	b.body.Reset()
	b.body.WriteString(`{"steps":[`)
	for j, i := range b.picked {
		if j > 0 {
			b.body.WriteByte(',')
		}
		sub, k := b.f.frameOf(i, b.f.steps[i])
		b.body.WriteString(`{"series_id":`)
		b.body.WriteString(strconv.Quote(b.f.ids[i]))
		b.body.WriteString(b.f.frags[sub][k])
	}
	b.body.WriteString(`]}`)
}

// roundTrip posts the encoded batch, decodes it, and checks every item
// against the reference wrappers, advancing each picked series by a step.
func (b *batcher) roundTrip(measure bool) error {
	t0 := time.Now()
	b.encode()
	t1 := time.Now()
	raw, err := doHTTP(b.client, "POST", b.url, b.body.Bytes(), http.StatusOK)
	t2 := time.Now()
	if err == nil {
		b.resp, err = decodeBatch(raw, b.resp)
		if err == nil && len(b.resp) != len(b.picked) {
			err = fmt.Errorf("batch of %d answered with %d results", len(b.picked), len(b.resp))
		}
	}
	t3 := time.Now()
	if err != nil {
		if measure {
			b.failed++
			b.lat = append(b.lat, math.MaxInt64)
		}
		return err
	}
	for j, i := range b.picked {
		sub, k := b.f.frameOf(i, b.f.steps[i])
		b.f.steps[i]++
		fr := &b.f.ref.series[sub][k]
		res, err := b.f.wraps[i].Step(fr.outcome, fr.quality)
		if err != nil {
			return err
		}
		want, err := b.f.ref.expectOf(res)
		if err != nil {
			return err
		}
		it := &b.resp[j]
		if it.status != http.StatusOK {
			b.mism.add("series %s: batch item status %d", b.f.ids[i], it.status)
			continue
		}
		if cerr := checkStep(it.step, want); cerr != nil {
			b.mism.add("series %s step %d: %v", b.f.ids[i], b.f.steps[i], cerr)
		}
		if b.capture == nil {
			b.capture = batchCapture(raw, want)
		}
	}
	t4 := time.Now()
	if !measure {
		return nil
	}
	b.items += len(b.picked)
	b.lat = append(b.lat, t3.Sub(t0).Nanoseconds())
	b.post = append(b.post, t2.Sub(t1).Nanoseconds())
	if id := b.opBase + uint64(len(b.lat)); b.spans.sampled(id) {
		root := spanID(id, 1)
		ns := b.spans.ns
		b.spans.add(span{op: id, id: root, name: "op.batch", start: ns(t0), end: ns(t4)})
		b.spans.add(span{op: id, id: spanID(id, 2), parent: root, name: "client.encode", start: ns(t0), end: ns(t1)})
		b.spans.add(span{op: id, id: spanID(id, 3), parent: root, name: "client.steps", start: ns(t1), end: ns(t2)})
		b.spans.add(span{op: id, id: spanID(id, 4), parent: root, name: "client.decode", start: ns(t2), end: ns(t3)})
		b.spans.add(span{op: id, id: spanID(id, 5), parent: root, name: "client.verify", start: ns(t3), end: ns(t4)})
	}
	return nil
}

// batchCapture keeps the first item of a real batch response as a
// stand-alone step body for the self-test.
func batchCapture(raw []byte, want expect) *capture {
	from := bytes.Index(raw, []byte(`"step":`))
	if from < 0 {
		return nil
	}
	from += len(`"step":`)
	to := bytes.IndexByte(raw[from:], '}')
	if to < 0 {
		return nil
	}
	body := append([]byte(nil), raw[from:from+to+1]...)
	off := bytes.Index(body, []byte(`"uncertainty":`)) + len(`"uncertainty":`)
	return &capture{raw: body, decode: decodeStep, want: want, uOffset: off}
}

// prepareFleet opens the working set and steps every series through one
// full ring (round-robin batches of distinct series, checked like the
// measured ones), so the measured window runs on evicting rings.
func (e *env) prepareFleet() error {
	f, err := newFleet(e.ref, e.frags, e.rng, fleetSize, fleetRing)
	if err != nil {
		return err
	}
	client := newHTTPClient(conns)
	if err := f.openAll(client, e.srv.httpBase, conns); err != nil {
		return err
	}
	for c := 0; c < conns; c++ {
		rng := rand.New(rand.NewPCG(e.rng.Uint64(), e.rng.Uint64()))
		e.batchers = append(e.batchers, newBatcher(f, client, e.srv.httpBase, c, conns, rng, e.mism, nil))
	}
	const prefillBatch = 4096
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c, b := range e.batchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < fleetRing; round++ {
				for from := 0; from < len(b.owned); from += prefillBatch {
					b.prefillPick(from, prefillBatch)
					if err := b.roundTrip(false); err != nil {
						errs[c] = fmt.Errorf("prefill: %w", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runBatch runs the closed loop: each connection keeps one batch of
// batchItems distinct series in flight until the window ends.
func (e *env) runBatch(window time.Duration, spans *spanLog) (e2e, error) {
	var out e2e
	var err error
	if out.from, err = e.sample(); err != nil {
		return out, err
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	start := time.Now()
	deadline := start.Add(window)
	for c, b := range e.batchers {
		b.spans, b.lat, b.post, b.items, b.failed = spans, b.lat[:0], b.post[:0], 0, 0
		if spans != nil {
			b.opBase |= 1 << 39
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b.pick(batchItems)
				if err := b.roundTrip(true); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if out.to, err = e.sample(); err != nil {
		return out, err
	}
	var lat, post latencies
	items := 0
	for _, b := range e.batchers {
		lat = append(lat, b.lat...)
		post = append(post, b.post...)
		items += b.items
		out.failed += b.failed
		if out.capture == nil {
			out.capture = b.capture
		}
	}
	if err := errors.Join(errs...); err != nil {
		out.firstErr = err
		out.failed++
	}
	s := summarize(lat)
	out.attempted = len(lat)
	out.stepP50, out.stepP99 = s.p50, s.p99
	out.itemsPerS = float64(items) / elapsed.Seconds()
	out.stepCallMean = summarize(post).meanMicros
	fmt.Fprintf(e.report, "  batch-http: %d requests of %d items, %.0f items/s, request p50 %.1f us p99 %.1f us p%.1f %.1f us\n",
		s.n, batchItems, out.itemsPerS, s.p50, s.p99, s.topQ*100, s.top)
	return out, nil
}
