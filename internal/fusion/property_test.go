package fusion

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// TestMajorityTallyDifferential drives the incremental majority tally
// through long random push/evict/reset sequences with a deliberately tiny
// outcome alphabet (heavy vote ties, so the `last`-clock tie-break and the
// delete-on-zero path are exercised constantly) and checks, after every
// operation, that the tally's fused outcome equals the MajorityVote.Fuse
// oracle applied to the surviving window.
func TestMajorityTallyDifferential(t *testing.T) {
	oracle := MajorityVote{TieBreak: MostRecent}
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xfeed))
		tally := oracle.NewTally()
		if tally == nil {
			t.Fatal("majority vote with MostRecent must have an incremental form")
		}
		// The FIFO window the tally mirrors: outcomes and uncertainties in
		// push order.
		var winO []int
		var winU []float64
		check := func(op string, step int) {
			t.Helper()
			got, gotErr := tally.Fused()
			want, wantErr := oracle.Fuse(winO, winU)
			switch {
			case wantErr != nil:
				if !errors.Is(gotErr, ErrNoOutcomes) {
					t.Fatalf("seed %d step %d (%s): empty window, tally err = %v, want ErrNoOutcomes",
						seed, step, op, gotErr)
				}
			case gotErr != nil:
				t.Fatalf("seed %d step %d (%s): tally err %v, oracle fused %d", seed, step, op, gotErr, want)
			case got != want:
				t.Fatalf("seed %d step %d (%s): tally fused %d, oracle %d (window %v)",
					seed, step, op, got, want, winO)
			}
		}
		for step := 0; step < 4000; step++ {
			switch r := rng.Float64(); {
			case r < 0.55 || len(winO) == 0:
				// Tiny alphabet: three classes tie constantly.
				o := rng.IntN(3)
				u := rng.Float64()
				tally.Push(o, u)
				winO = append(winO, o)
				winU = append(winU, u)
				check("push", step)
			case r < 0.9:
				tally.Evict(winO[0], winU[0])
				winO = winO[1:]
				winU = winU[1:]
				check("evict", step)
			case r < 0.95:
				tally.Reset()
				winO = winO[:0]
				winU = winU[:0]
				check("reset", step)
			default:
				// Over-evicting an empty-or-not window must be ignored for
				// outcomes that are not present.
				tally.Evict(999, 0)
				check("evict-absent", step)
			}
		}
	}
}

// TestLatestTallyDifferential runs the same adversarial sequence against the
// no-fusion baseline's tally.
func TestLatestTallyDifferential(t *testing.T) {
	oracle := Latest{}
	rng := rand.New(rand.NewPCG(99, 0xbeef))
	tally := oracle.NewTally()
	var winO []int
	var winU []float64
	for step := 0; step < 2000; step++ {
		if rng.Float64() < 0.6 || len(winO) == 0 {
			o := rng.IntN(4)
			tally.Push(o, 0.5)
			winO = append(winO, o)
			winU = append(winU, 0.5)
		} else {
			tally.Evict(winO[0], winU[0])
			winO = winO[1:]
			winU = winU[1:]
		}
		got, gotErr := tally.Fused()
		want, wantErr := oracle.Fuse(winO, winU)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: error divergence %v vs %v", step, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("step %d: latest tally %d, oracle %d", step, got, want)
		}
	}
}

// TestMajorityTallyTieBreakExact pins the tie semantics the differential
// test sweeps statistically: on a count tie the most recently seen class
// wins, and eviction keeps a class's last-seen clock alive while any vote
// remains.
func TestMajorityTallyTieBreakExact(t *testing.T) {
	tally := MajorityVote{}.NewTally()
	tally.Push(1, 0.2)
	tally.Push(2, 0.2) // 1 and 2 tie at one vote; 2 is most recent
	if got, _ := tally.Fused(); got != 2 {
		t.Fatalf("tie after pushes fused %d, want 2", got)
	}
	tally.Push(1, 0.2) // 1 leads 2-1
	if got, _ := tally.Fused(); got != 1 {
		t.Fatalf("majority fused %d, want 1", got)
	}
	tally.Evict(1, 0.2) // back to a 1-1 tie; 1's last-seen is newer than 2's
	if got, _ := tally.Fused(); got != 1 {
		t.Fatalf("tie after evict fused %d, want 1 (newer last-seen)", got)
	}
}

// TestMajorityTallyWideAlphabetExportRestore repeats the differential over
// an alphabet that drifts between 2 and 24 classes, so the tally's outcome
// table crosses its linear-scan limit in both directions. Every few
// operations the tally is exported, checked against the window (sorted by
// outcome, per-class counts, last-seen clocks), restored into a fresh
// tally, and the run carries on with the restored copy.
func TestMajorityTallyWideAlphabetExportRestore(t *testing.T) {
	oracle := MajorityVote{TieBreak: MostRecent}
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x51de))
		tally := oracle.NewTally().(StatefulTally)
		var winO []int
		var winU []float64
		var winT []uint64 // the clock of each window entry's push
		var clock uint64
		var st TallyState
		for step := 0; step < 3000; step++ {
			alphabet := 2 + (step/200)%23
			if rng.Float64() < 0.5 || len(winO) == 0 {
				o := rng.IntN(alphabet)
				u := rng.Float64()
				clock++
				tally.Push(o, u)
				winO, winU, winT = append(winO, o), append(winU, u), append(winT, clock)
			} else {
				tally.Evict(winO[0], winU[0])
				winO, winU, winT = winO[1:], winU[1:], winT[1:]
			}
			got, gotErr := tally.Fused()
			want, wantErr := oracle.Fuse(winO, winU)
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && got != want) {
				t.Fatalf("seed %d step %d: tally fused %d (%v), oracle %d (%v)", seed, step, got, gotErr, want, wantErr)
			}
			if step%61 != 0 {
				continue
			}
			tally.ExportState(&st)
			counts := map[int]TallyVote{}
			for i, o := range winO {
				counts[o] = TallyVote{Outcome: o, Count: counts[o].Count + 1, Last: winT[i]}
			}
			if st.Clock != clock || len(st.Votes) != len(counts) {
				t.Fatalf("seed %d step %d: export clock %d with %d votes, want %d with %d",
					seed, step, st.Clock, len(st.Votes), clock, len(counts))
			}
			for i, v := range st.Votes {
				if i > 0 && st.Votes[i-1].Outcome >= v.Outcome {
					t.Fatalf("seed %d step %d: export not sorted by outcome: %v", seed, step, st.Votes)
				}
				if v != counts[v.Outcome] {
					t.Fatalf("seed %d step %d: exported %+v, window holds %+v", seed, step, v, counts[v.Outcome])
				}
			}
			restored := oracle.NewTally().(StatefulTally)
			if err := restored.RestoreState(&st); err != nil {
				t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
			}
			tally = restored
		}
	}
}
