// Package otab holds the per-outcome table a series' running statistics
// live in: the timeseries buffer's vote counts and certainty sums (core)
// and the majority vote's counts and last-seen clocks (fusion). Both are
// keyed by outcome class, and a window holds a handful of classes in
// practice, so the table is a small slice searched linearly. Outcomes are
// not range-checked upstream, though, and buffers may be unbounded; past
// LinearMax live outcomes the table builds an index map, so a stream of
// all-distinct outcomes stays O(1) per operation.
//
// With plain-value payloads the entries hold no pointers, so a served
// series' table costs the garbage collector nothing to scan. A table is
// not safe for concurrent use; each buffer and tally owns its own.
package otab

// LinearMax is the number of live outcomes the table serves by linear
// scan. One more and it builds its index.
const LinearMax = 8

// Entry is one live outcome: how many windowed records carry it and a
// payload the owner defines (a certainty sum, a last-seen clock).
type Entry[P any] struct {
	Outcome int
	Count   int
	Payload P
}

// Table maps live outcomes to their entries. The zero value is an empty
// table ready for use.
type Table[P any] struct {
	entries []Entry[P]
	// index maps an outcome to its position in entries. It is consulted
	// only while indexed is set; Reset clears the map but keeps its
	// storage, so a rebuild does not allocate.
	index   map[int]int32
	indexed bool
}

// Len returns the number of live outcomes.
func (t *Table[P]) Len() int { return len(t.entries) }

// Entries returns the live entries in no particular order. The slice
// aliases the table: callers may update Count and Payload in place but
// must not change an Outcome, and it is invalidated by Add, Delete and
// Reset.
func (t *Table[P]) Entries() []Entry[P] { return t.entries }

// Find returns the position of outcome's entry in Entries, or -1 when the
// outcome is not live.
func (t *Table[P]) Find(outcome int) int {
	if t.indexed {
		if i, ok := t.index[outcome]; ok {
			return int(i)
		}
		return -1
	}
	for i := range t.entries {
		if t.entries[i].Outcome == outcome {
			return i
		}
	}
	return -1
}

// Get returns outcome's entry, or the zero entry when it is not live.
func (t *Table[P]) Get(outcome int) Entry[P] {
	if i := t.Find(outcome); i >= 0 {
		return t.entries[i]
	}
	return Entry[P]{Outcome: outcome}
}

// Add returns outcome's entry, appending a zero entry (Count 0) when the
// outcome is not live yet. The pointer is valid until the next Add, Delete
// or Reset.
func (t *Table[P]) Add(outcome int) *Entry[P] {
	if i := t.Find(outcome); i >= 0 {
		return &t.entries[i]
	}
	i := len(t.entries)
	t.entries = append(t.entries, Entry[P]{Outcome: outcome})
	switch {
	case t.indexed:
		t.index[outcome] = int32(i)
	case len(t.entries) > LinearMax:
		t.buildIndex()
	}
	return &t.entries[i]
}

// buildIndex switches the table to indexed lookups.
func (t *Table[P]) buildIndex() {
	if t.index == nil {
		t.index = make(map[int]int32, 2*len(t.entries))
	}
	for i := range t.entries {
		t.index[t.entries[i].Outcome] = int32(i)
	}
	t.indexed = true
}

// Delete removes the entry at position i (as returned by Find). The
// last entry moves into its place, so positions taken before a Delete are
// stale after it. An indexed table stays indexed until Reset.
func (t *Table[P]) Delete(i int) {
	last := len(t.entries) - 1
	if t.indexed {
		delete(t.index, t.entries[i].Outcome)
		if i != last {
			t.index[t.entries[last].Outcome] = int32(i)
		}
	}
	t.entries[i] = t.entries[last]
	t.entries[last] = Entry[P]{}
	t.entries = t.entries[:last]
}

// Reset empties the table, keeping its storage (the index map's too, for
// the next build), and returns it to linear scans until it grows past
// LinearMax again.
func (t *Table[P]) Reset() {
	clear(t.entries)
	t.entries = t.entries[:0]
	if t.indexed {
		clear(t.index)
		t.indexed = false
	}
}
