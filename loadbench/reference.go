package main

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/eval"
	"github.com/iese-repro/tauw/internal/simplex"
	"github.com/iese-repro/tauw/internal/wire"
)

// servedModelVersion is the taQIM revision every response must carry: the
// server runs without -auto-recalib and the benchmark never posts
// /v1/recalibrate, so the calibration-time model (version 1) serves the
// whole run.
const servedModelVersion = 1

// frame is one recorded test-series frame: the DDM outcome, the stateless
// quality factors (nine deficit channels, pixel size last) and the series'
// ground truth.
type frame struct {
	outcome int
	quality []float64
	truth   int
}

// reference is the benchmark's own replay of the paper's pipeline, built
// in-process from the same tiny study the server calibrates, with no code
// path shared with the server beyond the model packages themselves.
type reference struct {
	study  *eval.Study
	series [][]frame // the study's test series (300 × 10 frames)
	gate   *simplex.Monitor
}

func newReference() (*reference, error) {
	st, err := eval.BuildStudy(eval.TinyConfig())
	if err != nil {
		return nil, fmt.Errorf("building reference study: %w", err)
	}
	policy := simplex.DefaultTSRPolicy()
	gate, err := simplex.NewMonitor(policy)
	if err != nil {
		return nil, err
	}
	for _, l := range append(policy.Levels, policy.Terminal) {
		levelNames[l.Name] = l.Name
	}
	ref := &reference{study: st, gate: gate}
	for _, s := range st.TestSeries {
		fs := make([]frame, len(s.Outcomes))
		for i := range s.Outcomes {
			fs[i] = frame{outcome: s.Outcomes[i], quality: s.Quality[i], truth: s.Truth}
		}
		ref.series = append(ref.series, fs)
	}
	return ref, nil
}

// newWrapper returns a reference taUW with the server's buffer limit.
func (r *reference) newWrapper(bufferLimit int) (*core.Wrapper, error) {
	return core.NewWrapper(r.study.Base, r.study.TAQIM, core.Config{BufferLimit: bufferLimit})
}

// expect is what the server must answer for one step, and what a feedback
// join on that step must report.
type expect struct {
	fused          int
	u, su          float64
	seriesLen      int
	totalSteps     int
	leaf           int
	countermeasure string
	accepted       bool
}

// expectOf turns one reference wrapper result into the expected response.
func (r *reference) expectOf(res core.Result) (expect, error) {
	d, err := r.gate.Gate(res.Fused, res.Uncertainty)
	if err != nil {
		return expect{}, err
	}
	return expect{
		fused:          res.Fused,
		u:              res.Uncertainty,
		su:             res.Stateless.Uncertainty,
		seriesLen:      res.SeriesLen,
		totalSteps:     res.TotalSteps,
		leaf:           res.TAQIMLeaf,
		countermeasure: d.Level.Name,
		accepted:       d.Accepted,
	}, nil
}

// freshTable replays every test series from an empty buffer: entry [s][k]
// is the expected answer to step k of a newly opened series replaying
// test series s. Every open-loop track is such a replay.
func (r *reference) freshTable(bufferLimit int) ([][]expect, error) {
	w, err := r.newWrapper(bufferLimit)
	if err != nil {
		return nil, err
	}
	table := make([][]expect, len(r.series))
	for s, fs := range r.series {
		w.NewSeries()
		for _, f := range fs {
			res, err := w.Step(f.outcome, f.quality)
			if err != nil {
				return nil, err
			}
			e, err := r.expectOf(res)
			if err != nil {
				return nil, err
			}
			table[s] = append(table[s], e)
		}
	}
	return table, nil
}

// served is a decoded step response, whichever transport carried it.
type served struct {
	fused          int
	u, su          float64
	seriesLen      int
	totalSteps     int
	modelVersion   uint64
	countermeasure string
	accepted       bool
}

func fromWire(r *wire.StepResult) served {
	return served{
		fused: r.Fused, u: r.Uncertainty, su: r.StatelessU,
		seriesLen: r.SeriesLen, totalSteps: r.TotalSteps, modelVersion: r.ModelVersion,
		countermeasure: r.Countermeasure, accepted: r.Accepted,
	}
}

// checkStep compares a served step with the reference exactly: integers
// and strings by value, uncertainties by their float64 bits.
func checkStep(got served, want expect) error {
	switch {
	case got.fused != want.fused:
		return fmt.Errorf("fused_outcome %d, want %d", got.fused, want.fused)
	case math.Float64bits(got.u) != math.Float64bits(want.u):
		return fmt.Errorf("uncertainty %v (bits %#x), want %v (bits %#x)",
			got.u, math.Float64bits(got.u), want.u, math.Float64bits(want.u))
	case math.Float64bits(got.su) != math.Float64bits(want.su):
		return fmt.Errorf("stateless_uncertainty %v, want %v", got.su, want.su)
	case got.seriesLen != want.seriesLen:
		return fmt.Errorf("series_len %d, want %d", got.seriesLen, want.seriesLen)
	case got.totalSteps != want.totalSteps:
		return fmt.Errorf("total_steps %d, want %d", got.totalSteps, want.totalSteps)
	case got.modelVersion != servedModelVersion:
		return fmt.Errorf("model_version %d, want %d", got.modelVersion, servedModelVersion)
	case got.countermeasure != want.countermeasure:
		return fmt.Errorf("countermeasure %q, want %q", got.countermeasure, want.countermeasure)
	case got.accepted != want.accepted:
		return fmt.Errorf("accepted %v, want %v", got.accepted, want.accepted)
	}
	return nil
}

// joined is a decoded feedback response.
type joined struct {
	step         int
	correct      bool
	fused        int
	u            float64
	leaf         int
	modelVersion uint64
}

func fromWireFeedback(r *wire.FeedbackResult) joined {
	return joined{step: r.Step, correct: r.Correct, fused: r.FusedOutcome, u: r.Uncertainty,
		leaf: r.TAQIMLeaf, modelVersion: r.ModelVersion}
}

// checkFeedback verifies that the server joined the truth to the step the
// reference says it served, and judged it correctly.
func checkFeedback(got joined, want expect, truth int) error {
	switch {
	case got.step != want.totalSteps:
		return fmt.Errorf("feedback step %d, want %d", got.step, want.totalSteps)
	case got.fused != want.fused:
		return fmt.Errorf("feedback fused_outcome %d, want %d", got.fused, want.fused)
	case math.Float64bits(got.u) != math.Float64bits(want.u):
		return fmt.Errorf("feedback uncertainty %v, want %v", got.u, want.u)
	case got.leaf != want.leaf:
		return fmt.Errorf("feedback taqim_leaf %d, want %d", got.leaf, want.leaf)
	case got.correct != (want.fused == truth):
		return fmt.Errorf("feedback correct %v, want %v (fused %d, truth %d)",
			got.correct, want.fused == truth, want.fused, truth)
	case got.modelVersion != servedModelVersion:
		return fmt.Errorf("feedback model_version %d, want %d", got.modelVersion, servedModelVersion)
	}
	return nil
}

// mismatches counts reference mismatches and keeps the first few for the
// report. Safe for concurrent use.
type mismatches struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (m *mismatches) add(format string, args ...any) {
	m.mu.Lock()
	m.n++
	if len(m.first) < 5 {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
	m.mu.Unlock()
}

func (m *mismatches) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// capture is one real response kept for the self-test: its raw bytes, how
// to decode them, and the expectation it passed.
type capture struct {
	raw    []byte
	decode func([]byte) (served, error)
	want   expect
	// uOffset locates a byte inside the encoded uncertainty.
	uOffset int
}

// selfTest proves the check can fail: the captured response must pass as
// served, and must fail once with one expected value nudged by one ulp and
// once with one byte of the uncertainty corrupted.
func selfTest(c *capture) error {
	if c == nil {
		return errors.New("self-test: no response captured")
	}
	got, err := c.decode(c.raw)
	if err != nil {
		return fmt.Errorf("self-test: captured response does not decode: %w", err)
	}
	if err := checkStep(got, c.want); err != nil {
		return fmt.Errorf("self-test: captured response fails unperturbed: %w", err)
	}
	nudged := c.want
	nudged.u = math.Float64frombits(math.Float64bits(nudged.u) ^ 1)
	if checkStep(got, nudged) == nil {
		return errors.New("self-test: a one-ulp change of the expected uncertainty passed the check")
	}
	corrupt := append([]byte(nil), c.raw...)
	corrupt[c.uOffset] = flipDigit(corrupt[c.uOffset])
	if got, err := c.decode(corrupt); err == nil && checkStep(got, c.want) == nil {
		return fmt.Errorf("self-test: corrupting response byte %d passed the check", c.uOffset)
	}
	return nil
}

// flipDigit changes an ASCII digit to another digit and any other byte by
// its lowest bit, so a JSON number stays a number and a binary field
// changes value.
func flipDigit(b byte) byte {
	if b >= '0' && b <= '9' {
		return '0' + (b-'0'+1)%10
	}
	return b ^ 1
}
