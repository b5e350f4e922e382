package otab

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// oracleEntry is the map oracle's value: what the table must hold for one
// live outcome.
type oracleEntry struct {
	count   int
	payload uint64
}

// checkAgainst asserts the table holds exactly the oracle's entries and
// that every live outcome, and two never-live ones, resolve correctly.
func checkAgainst(t *testing.T, tab *Table[uint64], oracle map[int]oracleEntry, step int) {
	t.Helper()
	if tab.Len() != len(oracle) {
		t.Fatalf("step %d: table holds %d outcomes, oracle %d", step, tab.Len(), len(oracle))
	}
	if tab.indexed && tab.index == nil {
		t.Fatalf("step %d: indexed without an index", step)
	}
	if !tab.indexed && tab.Len() > LinearMax {
		t.Fatalf("step %d: %d live outcomes on linear scans", step, tab.Len())
	}
	for _, e := range tab.Entries() {
		want, ok := oracle[e.Outcome]
		if !ok {
			t.Fatalf("step %d: table holds dead outcome %d", step, e.Outcome)
		}
		if e.Count != want.count || e.Payload != want.payload {
			t.Fatalf("step %d: outcome %d = {%d %d}, oracle {%d %d}",
				step, e.Outcome, e.Count, e.Payload, want.count, want.payload)
		}
		if i := tab.Find(e.Outcome); i < 0 || tab.Entries()[i].Outcome != e.Outcome {
			t.Fatalf("step %d: Find(%d) = %d", step, e.Outcome, i)
		}
	}
	if tab.indexed && len(tab.index) != tab.Len() {
		t.Fatalf("step %d: index holds %d outcomes, table %d", step, len(tab.index), tab.Len())
	}
	for _, dead := range []int{-1 << 20, 1 << 20} {
		if i := tab.Find(dead); i >= 0 {
			t.Fatalf("step %d: Find(%d) = %d for a dead outcome", step, dead, i)
		}
		if g := tab.Get(dead); g.Count != 0 || g.Payload != 0 || g.Outcome != dead {
			t.Fatalf("step %d: Get(%d) = %+v, want the zero entry", step, dead, g)
		}
	}
}

// TestTableMatchesMapOracle drives a table and a map through the buffer's
// operation mix — push an outcome, evict the oldest, reset — over
// alphabets that keep the live count on both sides of LinearMax, so the
// linear path, the index build, indexed deletes down to a few live
// outcomes and the return to linear scans on Reset are all compared
// against the oracle. Every few steps
// the table is exported sorted and restored into a fresh table, which must
// then carry on identically.
func TestTableMatchesMapOracle(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x07ab))
		tab := new(Table[uint64])
		oracle := map[int]oracleEntry{}
		var window []int
		var clock uint64
		crossed, shrunk := false, false
		for step := 0; step < 4000; step++ {
			// The alphabet cycles between 2 and 24 classes, so the live
			// count crosses LinearMax in both directions.
			alphabet := 2 + (step/100)%23
			switch r := rng.Float64(); {
			case len(window) == 0 || (r < 0.5 && len(window) < 32):
				o := rng.IntN(alphabet) - alphabet/3 // negative outcomes too
				clock++
				e := tab.Add(o)
				e.Count++
				e.Payload = clock
				oracle[o] = oracleEntry{count: oracle[o].count + 1, payload: clock}
				window = append(window, o)
			case r < 0.998:
				o := window[0]
				window = window[1:]
				i := tab.Find(o)
				if i < 0 {
					t.Fatalf("seed %d step %d: live outcome %d not found", seed, step, o)
				}
				if e := &tab.Entries()[i]; e.Count > 1 {
					e.Count--
				} else {
					tab.Delete(i)
				}
				if w := oracle[o]; w.count > 1 {
					oracle[o] = oracleEntry{count: w.count - 1, payload: w.payload}
				} else {
					delete(oracle, o)
				}
			default:
				tab.Reset()
				clear(oracle)
				window = window[:0]
				if tab.indexed {
					t.Fatalf("seed %d step %d: Reset left the index in use", seed, step)
				}
			}
			crossed = crossed || tab.indexed
			shrunk = shrunk || (tab.indexed && tab.Len() <= LinearMax)
			checkAgainst(t, tab, oracle, step)

			if step%97 == 0 {
				exported := slices.Clone(tab.Entries())
				slices.SortFunc(exported, func(a, b Entry[uint64]) int { return cmp.Compare(a.Outcome, b.Outcome) })
				restored := new(Table[uint64])
				for _, e := range exported {
					if restored.Find(e.Outcome) >= 0 {
						t.Fatalf("seed %d step %d: duplicate outcome %d in export", seed, step, e.Outcome)
					}
					*restored.Add(e.Outcome) = e
				}
				checkAgainst(t, restored, oracle, step)
				tab = restored
			}
		}
		if !crossed || !shrunk {
			t.Fatalf("seed %d: the run built an index %v, shrank an indexed table to LinearMax %v; want both", seed, crossed, shrunk)
		}
	}
}

// TestTableReuseDoesNotAllocate pins the steady state the wrapper step
// relies on: once a table has reached its high-water mark, including an
// index, further adds, deletes and resets allocate nothing.
func TestTableReuseDoesNotAllocate(t *testing.T) {
	var tab Table[float64]
	cycle := func() {
		for o := 0; o < 3*LinearMax; o++ {
			tab.Add(o).Count++
		}
		for tab.Len() > 0 {
			tab.Delete(tab.Len() - 1)
		}
		tab.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state table cycle allocates %.1f times", allocs)
	}
}
