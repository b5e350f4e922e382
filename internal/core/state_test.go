package core

import (
	"math"
	"slices"
	"testing"
)

// TestStepKeepsNoQualityVector proves no step keeps its caller's quality
// slice: a run that overwrites its one reused slice with garbage after
// every Step, and is snapshotted and restored halfway, must match a run
// that hands each step a fresh slice — on every result and across the
// restore. A wrapper that kept a reference would read the garbage back.
func TestStepKeepsNoQualityVector(t *testing.T) {
	st := buildStudy(t)
	taqim := fitTAQIM(t, st, nil)
	newPool := func() *WrapperPool {
		t.Helper()
		pool, err := NewWrapperPool(st.base, taqim, Config{BufferLimit: 6}, 0, WithMonitoring(8))
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	const track, steps, restoreAt = 1, 60, 30
	input := func(i int) (int, []float64) {
		s := st.testSeries[i%len(st.testSeries)]
		j := (i / len(st.testSeries)) % len(s.Outcomes)
		return s.Outcomes[j], s.Quality[j]
	}

	ref := newPool()
	if err := ref.Open(track); err != nil {
		t.Fatal(err)
	}
	want := make([]Result, steps)
	for i := range want {
		outcome, q := input(i)
		res, err := ref.Step(track, outcome, slices.Clone(q))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	pool := newPool()
	if err := pool.Open(track); err != nil {
		t.Fatal(err)
	}
	var reused []float64
	for i := 0; i < steps; i++ {
		if i == restoreAt {
			var snap SeriesState
			if err := pool.SnapshotTrack(track, &snap); err != nil {
				t.Fatal(err)
			}
			for k, r := range snap.Records {
				if r.Quality != nil {
					t.Fatalf("snapshot record %d carries a quality vector", k)
				}
			}
			pool = newPool()
			if err := pool.RestoreTrack(&snap); err != nil {
				t.Fatal(err)
			}
		}
		outcome, q := input(i)
		reused = append(reused[:0], q...)
		got, err := pool.Step(track, outcome, reused)
		if err != nil {
			t.Fatal(err)
		}
		for k := range reused {
			reused[k] = math.NaN()
		}
		if got != want[i] {
			t.Fatalf("step %d with a reused, overwritten quality slice:\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}
