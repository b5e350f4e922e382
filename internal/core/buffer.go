// Package core implements the paper's contribution: the timeseries-aware
// uncertainty wrapper (taUW). A timeseries buffer stores the interim results
// of the current series (DDM outcomes and per-step base-wrapper
// uncertainties); an information-fusion rule combines the outcomes into an
// improved fused prediction; four timeseries-aware quality factors (taQF)
// are derived from the buffer; and a second calibrated quality impact model
// (taQIM) maps the stateless factors plus the taQF to a dependable
// uncertainty for the fused outcome. Uncertainty-fusion baselines (naïve,
// opportune, worst-case) are provided behind the same runtime interface.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/iese-repro/tauw/internal/otab"
)

// Record stores the interim results of one timestep, as kept in the
// timeseries buffer.
type Record struct {
	// Outcome is the momentaneous DDM outcome o_j.
	Outcome int
	// Uncertainty is the stateless base-wrapper estimate u_j.
	Uncertainty float64
	// Quality is ignored: no taQF reads a past step's quality factors, so
	// the buffer does not keep them and every Record it returns has a nil
	// Quality.
	//
	// Deprecated: kept only so callers that still set it compile.
	Quality []float64
}

// step is a Record as the buffer stores it: 16 bytes and pointer-free, so
// a series' window costs the garbage collector nothing to scan.
type step struct {
	outcome     int
	uncertainty float64
}

func (s step) record() Record { return Record{Outcome: s.outcome, Uncertainty: s.uncertainty} }

// Buffer is the timeseries buffer: it accumulates one Record per timestep
// and is cleared at the onset of a new timeseries (when the tracker reports
// that predictions now relate to a different physical object). A Limit > 0
// turns it into a ring that keeps only the most recent records, for
// unbounded streams; the study uses unlimited buffers since GTSRB series
// have at most 30 frames.
//
// Alongside the records the buffer maintains running per-outcome statistics
// (vote counts and certainty sums), updated on every append and eviction, so
// the four taQF can be derived in O(1) instead of a full-series scan (see
// FeaturesAt). ComputeFeatures remains the reference oracle the incremental
// stats are tested against.
type Buffer struct {
	records []step
	limit   int
	start   int // ring start when limit > 0 and full
	full    bool

	// total counts every append since the last Reset, including records a
	// full ring has since evicted; Len() is the buffered count. The taQF
	// length factor uses the buffered count — the window the other factors
	// are computed over — while total makes eviction observable.
	total int
	// stats holds the running per-outcome statistics: the buffered vote
	// count and the certainty sum (1 - u_j) of each class. An entry is
	// deleted as soon as its count reaches zero, so stats.Len() is the
	// distinct-outcome taQF and floating-point eviction drift in a
	// certainty sum dies with its class.
	stats otab.Table[float64]
}

// NewBuffer creates a buffer; limit 0 means unbounded.
func NewBuffer(limit int) (*Buffer, error) {
	b, err := makeBuffer(limit)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// makeBuffer is NewBuffer for owners that hold the buffer by value.
func makeBuffer(limit int) (Buffer, error) {
	if limit < 0 {
		return Buffer{}, fmt.Errorf("core: buffer limit %d must be >= 0", limit)
	}
	b := Buffer{limit: limit}
	if limit > 0 {
		b.records = make([]step, 0, limit)
	}
	return b, nil
}

// Append adds one timestep; r.Quality is not kept. When the buffer is a
// full ring it returns the record that was evicted to make room, so callers
// maintaining their own incremental state (e.g. a fusion.Tally) can retire
// it.
func (b *Buffer) Append(r Record) (evicted Record, wasEvicted bool) {
	// Clamp defensively; upstream validation should prevent this. NaN is
	// clamped to 1 (maximum uncertainty) so it cannot poison the running
	// certainty sums.
	s := step{outcome: r.Outcome, uncertainty: r.Uncertainty}
	if math.IsNaN(s.uncertainty) || s.uncertainty > 1 {
		s.uncertainty = 1
	} else if s.uncertainty < 0 {
		s.uncertainty = 0
	}
	b.total++
	b.statAdd(s)
	if b.limit == 0 || len(b.records) < b.limit {
		b.records = append(b.records, s)
		return Record{}, false
	}
	old := b.records[b.start]
	b.records[b.start] = s
	b.start = (b.start + 1) % b.limit
	b.full = true
	b.statRemove(old)
	return old.record(), true
}

func (b *Buffer) statAdd(s step) {
	e := b.stats.Add(s.outcome)
	e.Count++
	e.Payload += 1 - s.uncertainty
}

func (b *Buffer) statRemove(s step) {
	i := b.stats.Find(s.outcome)
	if i < 0 {
		return
	}
	e := &b.stats.Entries()[i]
	e.Count--
	if e.Count <= 0 {
		b.stats.Delete(i)
		return
	}
	e.Payload -= 1 - s.uncertainty
}

// Len returns the number of buffered timesteps.
func (b *Buffer) Len() int { return len(b.records) }

// TotalSteps returns the number of timesteps appended since the last Reset,
// including any a full ring has evicted. TotalSteps() == Len() while no
// eviction has happened; under a BufferLimit the difference is the number of
// evicted records.
func (b *Buffer) TotalSteps() int { return b.total }

// Reset clears the buffer at the onset of a new timeseries. Capacity is
// retained so a steady-state stream of series allocates nothing.
func (b *Buffer) Reset() {
	b.records = b.records[:0]
	b.start = 0
	b.full = false
	b.total = 0
	b.stats.Reset()
}

// FeaturesAt derives all four taQF for the given fused outcome from the
// running statistics in O(1) — no series scan. It is the incremental
// equivalent of ComputeFeatures(b.Outcomes(), b.Uncertainties(), fused).
func (b *Buffer) FeaturesAt(fused int) ([4]float64, error) {
	var out [4]float64
	n := len(b.records)
	if n == 0 {
		return out, ErrEmptySeries
	}
	s := b.stats.Get(fused)
	out[Ratio-1] = float64(s.Count) / float64(n)
	out[Length-1] = float64(n)
	out[Size-1] = float64(b.stats.Len())
	out[Certainty-1] = s.Payload
	return out, nil
}

// Outcomes returns the buffered outcomes in time order (a fresh slice).
func (b *Buffer) Outcomes() []int {
	out := make([]int, 0, len(b.records))
	b.each(func(s step) { out = append(out, s.outcome) })
	return out
}

// Uncertainties returns the buffered per-step uncertainties in time order (a
// fresh slice).
func (b *Buffer) Uncertainties() []float64 {
	out := make([]float64, 0, len(b.records))
	b.each(func(s step) { out = append(out, s.uncertainty) })
	return out
}

// Records returns a copy of the buffered records in time order.
func (b *Buffer) Records() []Record {
	out := make([]Record, 0, len(b.records))
	b.each(func(s step) { out = append(out, s.record()) })
	return out
}

// Last returns the most recent record; ok is false for an empty buffer.
func (b *Buffer) Last() (Record, bool) {
	if len(b.records) == 0 {
		return Record{}, false
	}
	if b.limit > 0 && b.full {
		idx := (b.start + b.limit - 1) % b.limit
		return b.records[idx].record(), true
	}
	return b.records[len(b.records)-1].record(), true
}

// each visits records in time order, handling ring wrap-around.
func (b *Buffer) each(fn func(step)) {
	if b.limit == 0 || !b.full {
		for _, s := range b.records {
			fn(s)
		}
		return
	}
	for i := 0; i < b.limit; i++ {
		fn(b.records[(b.start+i)%b.limit])
	}
}

// ErrEmptySeries is returned when a wrapper step is requested with no data.
var ErrEmptySeries = errors.New("core: empty timeseries")
