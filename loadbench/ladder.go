package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/monitor"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/trace"
	"github.com/iese-repro/tauw/internal/wire"
)

// The ladder replays a workload's recorded steps in-process and times the
// public entry point of each layer from the outside: one pass over the
// recording per layer, five passes each, median ns per call. Each pass is
// a span under one root, so the trace shows the ladder's own glue as the
// root's self time.

// ladderStep is one recorded step: which series, which frame.
type ladderStep struct {
	series int32
	sub    int32
	k      int8
	fb     bool // followed by feedback
}

// ladderSpec describes the workload shape the ladder mirrors.
type ladderSpec struct {
	live        int     // concurrently open series
	fresh       bool    // series restart every framesPerTrack steps
	prefill     int     // steps each series has taken before timing (ring state)
	bufferLimit int     // the server's -buffer-limit
	fbFrac      float64 // share of steps followed by feedback
	batch       int     // items per batch call (0 = single steps)
	wire        bool    // the workload runs the binary codec
}

const ladderPasses = 5

// ladderSink keeps the timed calls' results alive.
var ladderSink float64

type ladder struct {
	ref   *reference
	spec  ladderSpec
	steps []ladderStep
	subs  []int32     // walk origin of each live series
	rows  [][]float64 // taQIM input row of each step
	ests  []float64   // base-wrapper uncertainty of each step
	us    []float64   // served (taQIM) uncertainty of each step
	fused []int       // reference fused outcome of each step
	leaf  []int
	spans *spanLog
	root  uint64
	k     int
	out   map[string]float64
}

// record lays out the steps in workload order and replays them through
// reference wrappers to capture each step's taQIM row and results.
func (l *ladder) record(rng *rand.Rand) error {
	subs := make([]int32, l.spec.live)
	for i := range subs {
		subs[i] = int32(rng.IntN(len(l.ref.series)))
	}
	l.subs = subs
	if l.spec.fresh {
		for k := 0; k < framesPerTrack; k++ {
			for s := range subs {
				l.steps = append(l.steps, ladderStep{series: int32(s), sub: subs[s], k: int8(k),
					fb: rng.Float64() < l.spec.fbFrac})
			}
		}
	} else {
		// Long series: series s walks the test series from subs[s]; after
		// the prefill, 32 batches of distinct series each.
		next := make([]int, l.spec.live)
		for i := range next {
			next[i] = l.spec.prefill
		}
		mark := make([]int, l.spec.live)
		for b := 1; b <= 32; b++ {
			for n := 0; n < l.spec.batch; {
				s := rng.IntN(l.spec.live)
				if mark[s] == b {
					continue
				}
				mark[s] = b
				n++
				sub, k := walkFrame(len(l.ref.series), int(subs[s]), next[s])
				l.steps = append(l.steps, ladderStep{series: int32(s), sub: int32(sub), k: int8(k)})
				next[s]++
			}
		}
	}
	wraps, err := l.wrappers(subs)
	if err != nil {
		return err
	}
	for _, st := range l.steps {
		w := wraps[st.series]
		if l.spec.fresh && st.k == 0 {
			w.NewSeries()
		}
		f := &l.ref.series[st.sub][st.k]
		res, err := w.Step(f.outcome, f.quality)
		if err != nil {
			return err
		}
		row := append(append([]float64(nil), f.quality...), res.TAQF[:]...)
		l.rows = append(l.rows, row)
		l.ests = append(l.ests, res.Stateless.Uncertainty)
		l.us = append(l.us, res.Uncertainty)
		l.fused = append(l.fused, res.Fused)
		l.leaf = append(l.leaf, res.TAQIMLeaf)
	}
	return nil
}

// prefillFrame is the frame a long series starting at test series start
// takes at step n.
func (l *ladder) prefillFrame(start int32, n int) *frame {
	sub, k := walkFrame(len(l.ref.series), int(start), n)
	return &l.ref.series[sub][k]
}

// wrappers returns one reference wrapper per live series, advanced
// through the prefill.
func (l *ladder) wrappers(subs []int32) ([]*core.Wrapper, error) {
	ws := make([]*core.Wrapper, len(subs))
	for s := range ws {
		w, err := l.ref.newWrapper(l.spec.bufferLimit)
		if err != nil {
			return nil, err
		}
		for n := 0; n < l.spec.prefill; n++ {
			f := l.prefillFrame(subs[s], n)
			if _, err := w.Step(f.outcome, f.quality); err != nil {
				return nil, err
			}
		}
		ws[s] = w
	}
	return ws, nil
}

// time runs pass ladderPasses times, each after an untimed prep (nil for
// none), and records the median ns per call under name, one span per pass.
func (l *ladder) time(name string, calls int, prep, pass func() error) error {
	var per []float64
	for p := 0; p < ladderPasses; p++ {
		if prep != nil {
			if err := prep(); err != nil {
				return fmt.Errorf("ladder %s: %w", name, err)
			}
		}
		start := time.Now()
		if err := pass(); err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		end := time.Now()
		per = append(per, float64(end.Sub(start).Nanoseconds())/float64(calls))
		l.k++
		l.spans.add(span{op: l.root, id: spanID(l.root, l.k+1), parent: spanID(l.root, 1),
			name: "layer." + name, start: l.spans.ns(start), end: l.spans.ns(end)})
	}
	l.out[name] = median(per)
	return nil
}

// runLadder times every layer the workload runs; layers it bypasses are
// reported as 0.
func runLadder(ref *reference, spec ladderSpec, rng *rand.Rand, spans *spanLog, out map[string]float64) error {
	l := &ladder{ref: ref, spec: spec, spans: spans, root: 1 << 50, out: out}
	begin := time.Now()
	if err := l.record(rng); err != nil {
		return err
	}
	subs := l.subs
	n := len(l.steps)
	taqim, base := ref.study.TAQIM, ref.study.Base

	var sinkF float64
	if err := l.time("dtree.predict_ns", n, nil, func() error {
		for i := range l.rows {
			u, _, err := taqim.Predict(l.rows[i])
			if err != nil {
				return err
			}
			sinkF += u
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.time("uw.estimate_ns", n, nil, func() error {
		for _, st := range l.steps {
			f := &ref.series[st.sub][st.k]
			est, err := base.Estimate(f.outcome, f.quality, nil)
			if err != nil {
				return err
			}
			sinkF += est.Uncertainty
		}
		return nil
	}); err != nil {
		return err
	}

	// Buffers: append alone, then append plus FeaturesAt; the difference
	// is FeaturesAt.
	bufs := make([]*core.Buffer, spec.live)
	for s := range bufs {
		b, err := core.NewBuffer(spec.bufferLimit)
		if err != nil {
			return err
		}
		for p := 0; p < spec.prefill; p++ {
			f := l.prefillFrame(subs[s], p)
			b.Append(core.Record{Outcome: f.outcome, Uncertainty: 0.1, Quality: f.quality})
		}
		bufs[s] = b
	}
	appendPass := func(features bool) func() error {
		return func() error {
			for i, st := range l.steps {
				b := bufs[st.series]
				if spec.fresh && st.k == 0 {
					b.Reset()
				}
				f := &ref.series[st.sub][st.k]
				b.Append(core.Record{Outcome: f.outcome, Uncertainty: l.ests[i], Quality: f.quality})
				if features {
					q, err := b.FeaturesAt(l.fused[i])
					if err != nil {
						return err
					}
					sinkF += q[0]
				}
			}
			return nil
		}
	}
	if err := l.time("core.buffer_append_ns", n, nil, appendPass(false)); err != nil {
		return err
	}
	if err := l.time("core.append_features_ns", n, nil, appendPass(true)); err != nil {
		return err
	}
	out["core.features_at_ns"] = out["core.append_features_ns"] - out["core.buffer_append_ns"]
	delete(out, "core.append_features_ns")

	wraps, err := l.wrappers(subs)
	if err != nil {
		return err
	}
	if err := l.time("core.wrapper_step_ns", n, nil, func() error {
		for _, st := range l.steps {
			w := wraps[st.series]
			if spec.fresh && st.k == 0 {
				w.NewSeries()
			}
			f := &ref.series[st.sub][st.k]
			res, err := w.Step(f.outcome, f.quality)
			if err != nil {
				return err
			}
			sinkF += res.Uncertainty
		}
		return nil
	}); err != nil {
		return err
	}
	out["core.wrapper_self_ns"] = out["core.wrapper_step_ns"] - out["dtree.predict_ns"] -
		out["uw.estimate_ns"] - out["core.buffer_append_ns"] - out["core.features_at_ns"]

	if spec.batch > 0 {
		if err := l.poolBatch(subs, &sinkF); err != nil {
			return err
		}
	} else if err := l.poolSingle(&sinkF); err != nil {
		return err
	}
	if spec.wire {
		if err := l.wireCodec(); err != nil {
			return err
		}
	}
	spans.add(span{op: l.root, id: spanID(l.root, 1), name: "ladder", start: spans.ns(begin), end: spans.ns(time.Now())})
	ladderSink = sinkF
	return nil
}

// newPool builds a pool configured like the server's.
func (l *ladder) newPool(traced bool) (*core.WrapperPool, error) {
	opts := []core.PoolOption{core.WithMonitoring(256)}
	if traced {
		opts = append(opts, core.WithTrace(trace.New(trace.Config{})))
	}
	return core.NewWrapperPool(l.ref.study.Base, l.ref.study.TAQIM,
		core.Config{BufferLimit: l.spec.bufferLimit}, 0, opts...)
}

// poolSingle times StepSeries over live series, their open/close churn,
// the feedback join and the monitor folds behind it, and the pool step
// again with a flight recorder attached.
func (l *ladder) poolSingle(sinkF *float64) error {
	ids := make([]string, l.spec.live)
	var p *core.WrapperPool
	// churn closes the previous tracks and opens fresh ones.
	churn := func() error {
		for s := range ids {
			if ids[s] != "" {
				if err := p.CloseSeries(ids[s]); err != nil {
					return err
				}
			}
			id, err := p.OpenSeries()
			if err != nil {
				return err
			}
			ids[s] = id
		}
		return nil
	}
	stepAll := func() error {
		for _, st := range l.steps {
			f := &l.ref.series[st.sub][st.k]
			res, err := p.StepSeries(ids[st.series], f.outcome, f.quality)
			if err != nil {
				return err
			}
			*sinkF += res.Uncertainty
		}
		return nil
	}
	churnThenStep := func() error {
		if err := churn(); err != nil {
			return err
		}
		return stepAll()
	}
	var fbs []int
	for i, st := range l.steps {
		if st.fb {
			fbs = append(fbs, i)
		}
	}
	takeAll := func() error {
		for _, i := range fbs {
			st := l.steps[i]
			rec, err := p.TakeFeedbackSeries(ids[st.series], int(st.k)+1)
			if err != nil {
				return err
			}
			*sinkF += rec.Uncertainty
		}
		return nil
	}
	n := len(l.steps)
	var err error
	for _, traced := range []bool{false, true} {
		for s := range ids {
			ids[s] = ""
		}
		if p, err = l.newPool(traced); err != nil {
			return err
		}
		name := "core.pool_step_ns"
		if traced {
			name = "core.pool_step_traced_ns"
		}
		// Every pass steps freshly opened series, as tracks do.
		if err := l.time(name, n, churn, stepAll); err != nil {
			return err
		}
	}
	l.out["trace.overhead_ns"] = l.out["core.pool_step_traced_ns"] - l.out["core.pool_step_ns"]
	delete(l.out, "core.pool_step_traced_ns")
	if err := l.time("core.pool_open_close_ns", len(ids), nil, churn); err != nil {
		return err
	}
	if len(fbs) == 0 {
		return nil
	}
	if err := l.time("core.take_feedback_ns", len(fbs), churnThenStep, takeAll); err != nil {
		return err
	}
	return l.monitorFolds(fbs)
}

// monitorFolds times the calibration monitor and the per-leaf evidence
// fold that every joined feedback runs.
func (l *ladder) monitorFolds(fbs []int) error {
	m, err := monitor.New(monitor.Config{})
	if err != nil {
		return err
	}
	if err := l.time("monitor.observe_ns", len(fbs), nil, func() error {
		for _, i := range fbs {
			st := l.steps[i]
			wrong := l.fused[i] != l.ref.series[st.sub][st.k].truth
			if err := m.Observe(-int(st.series)-1, l.us[i], wrong); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ls, err := monitor.NewLeafStats(l.ref.study.TAQIM.NumRegions(), 0)
	if err != nil {
		return err
	}
	return l.time("monitor.leaf_observe_ns", len(fbs), nil, func() error {
		for _, i := range fbs {
			st := l.steps[i]
			ls.Observe(-int(st.series)-1, l.leaf[i], l.fused[i] != l.ref.series[st.sub][st.k].truth)
		}
		return nil
	})
}

// poolBatch times StepBatchSeriesInto per item over the prefilled working
// set, untraced and traced.
func (l *ladder) poolBatch(subs []int32, sinkF *float64) error {
	for _, traced := range []bool{false, true} {
		p, err := l.newPool(traced)
		if err != nil {
			return err
		}
		ids := make([]string, l.spec.live)
		for s := range ids {
			if ids[s], err = p.OpenSeries(); err != nil {
				return err
			}
			for n := 0; n < l.spec.prefill; n++ {
				f := l.prefillFrame(subs[s], n)
				if _, err := p.StepSeries(ids[s], f.outcome, f.quality); err != nil {
					return err
				}
			}
		}
		items := make([]core.SeriesStepItem, len(l.steps))
		for i, st := range l.steps {
			f := &l.ref.series[st.sub][st.k]
			items[i] = core.SeriesStepItem{SeriesID: ids[st.series], Outcome: f.outcome, Quality: f.quality}
		}
		var dst []core.BatchResult
		name := "core.pool_batch_item_ns"
		if traced {
			name = "core.pool_batch_item_traced_ns"
		}
		if err := l.time(name, len(items), nil, func() error {
			for from := 0; from < len(items); from += l.spec.batch {
				dst = p.StepBatchSeriesInto(items[from:from+l.spec.batch], 0, dst)
				for j := range dst {
					if dst[j].Err != nil {
						return dst[j].Err
					}
					*sinkF += dst[j].Result.Uncertainty
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	l.out["trace.overhead_ns"] = l.out["core.pool_batch_item_traced_ns"] - l.out["core.pool_batch_item_ns"]
	delete(l.out, "core.pool_batch_item_traced_ns")
	return nil
}

// wireCodec times one step's full binary round of the codec: request
// encode and decode, result encode and decode.
func (l *ladder) wireCodec() error {
	levels := []string{}
	pol := simplex.DefaultTSRPolicy()
	for _, lv := range append(pol.Levels, pol.Terminal) {
		levels = append(levels, lv.Name)
	}
	var req, resp []byte
	var out wire.StepResult
	const id = "s123456"
	return l.time("wire.step_codec_ns", len(l.steps), nil, func() error {
		var err error
		for i, st := range l.steps {
			f := &l.ref.series[st.sub][st.k]
			if req, err = wire.AppendStepItem(req[:0], id, f.outcome, f.quality); err != nil {
				return err
			}
			v, _, err := wire.DecodeStepItemView(req)
			if err != nil {
				return err
			}
			res := wire.StepResult{Fused: v.Outcome, Uncertainty: l.us[i], StatelessU: l.ests[i],
				SeriesLen: int(st.k) + 1, TotalSteps: int(st.k) + 1, ModelVersion: 1}
			resp = wire.AppendStepResultPayload(resp[:0], &res, 0)
			if _, err := wire.DecodeStepResultPayload(resp, &out, levels); err != nil {
				return err
			}
		}
		return nil
	})
}
