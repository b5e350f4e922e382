package fusion

import "github.com/iese-repro/tauw/internal/otab"

// Tally is the running state of an incremental information-fusion rule: the
// caller pushes one (outcome, uncertainty) pair per timestep, evicts the
// oldest pair when its timeseries buffer drops it (ring eviction), and reads
// the current fused outcome in O(distinct outcomes) — independent of the
// series length. A Tally is not safe for concurrent use; each wrapper owns
// its own.
type Tally interface {
	// Push records one new timestep.
	Push(outcome int, uncertainty float64)
	// Evict removes the oldest recorded timestep. The caller must pass the
	// pair exactly as it was pushed and must evict in push order; evicting
	// more than was pushed is ignored.
	Evict(outcome int, uncertainty float64)
	// Reset clears the tally at the onset of a new timeseries.
	Reset()
	// Fused returns the fused outcome of the pushed-minus-evicted window,
	// or ErrNoOutcomes when the window is empty.
	Fused() (int, error)
}

// Incremental is implemented by OutcomeFusers that can maintain their fusion
// decision incrementally. NewTally returns a fresh empty tally, or nil when
// the fuser's configuration has no incremental form (the caller must then
// fall back to Fuse over the full history).
type Incremental interface {
	NewTally() Tally
}

// NewTally implements Incremental for the paper's majority vote. Only the
// MostRecent tie-break has an incremental form: the lowest-uncertainty
// tie-break needs the per-class minimum uncertainty, which cannot be
// maintained in O(1) under eviction.
func (m MajorityVote) NewTally() Tally {
	if m.TieBreak == LowestUncertainty {
		return nil
	}
	return &majorityTally{}
}

// majorityTally maintains per-outcome vote counts plus the logical time of
// each outcome's most recent occurrence (the table entry's payload). The
// fused outcome is the count argmax; ties go to the larger last-seen time,
// which is exactly the paper's most-recent tie-break. Eviction always
// removes the oldest pushed pair, so an outcome's last-seen time only dies
// when its count reaches zero.
type majorityTally struct {
	votes otab.Table[uint64]
	clock uint64
}

func (t *majorityTally) Push(outcome int, _ float64) {
	t.clock++
	e := t.votes.Add(outcome)
	e.Count++
	e.Payload = t.clock
}

func (t *majorityTally) Evict(outcome int, _ float64) {
	i := t.votes.Find(outcome)
	if i < 0 {
		return
	}
	e := &t.votes.Entries()[i]
	if e.Count <= 1 {
		t.votes.Delete(i)
		return
	}
	e.Count--
}

func (t *majorityTally) Reset() {
	t.votes.Reset()
	t.clock = 0
}

func (t *majorityTally) Fused() (int, error) {
	votes := t.votes.Entries()
	if len(votes) == 0 {
		return 0, ErrNoOutcomes
	}
	best := votes[0]
	for _, e := range votes[1:] {
		if e.Count > best.Count || (e.Count == best.Count && e.Payload > best.Payload) {
			best = e
		}
	}
	return best.Outcome, nil
}

// NewTally implements Incremental for the no-fusion baseline: the fused
// outcome is simply the most recently pushed one, which eviction (always of
// the oldest pair) can never remove while the window is non-empty.
func (Latest) NewTally() Tally { return &latestTally{} }

type latestTally struct {
	outcome int
	n       int
}

func (t *latestTally) Push(outcome int, _ float64) {
	t.outcome = outcome
	t.n++
}

func (t *latestTally) Evict(int, float64) {
	if t.n > 0 {
		t.n--
	}
}

func (t *latestTally) Reset() { t.outcome, t.n = 0, 0 }

func (t *latestTally) Fused() (int, error) {
	if t.n == 0 {
		return 0, ErrNoOutcomes
	}
	return t.outcome, nil
}
