package store_test

import (
	"bytes"
	"os"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/store"
)

// testdata/series_record_with_quality.bin is a series record written by
// AppendSeriesRecord as of commit 71423c3, when every buffered record still
// carried its step's quality vector (nine deficit channels plus pixel
// size). It is the state of series s1 after legacySteps steps of
// driveLegacy on a pool built by newLegacyPool.
const (
	legacyFixture      = "testdata/series_record_with_quality.bin"
	legacySteps        = 20
	legacyQualityWidth = 10
)

func newLegacyPool(t *testing.T) *core.WrapperPool {
	t.Helper()
	st := testStudy(t)
	pool, err := core.NewWrapperPool(st.Base, st.TAQIM, core.Config{BufferLimit: 8}, 0, core.WithMonitoring(16))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// driveLegacy steps series id over [from, to): frames interleave three test
// series, every odd step overrides the outcome so the window holds several
// classes and the ring evicts, and every fourth step takes the feedback of
// the estimate served two steps earlier.
func driveLegacy(t *testing.T, pool *core.WrapperPool, id string, from, to int) []core.Result {
	t.Helper()
	data := testStudy(t).TestSeries
	var out []core.Result
	for i := from; i < to; i++ {
		s := data[i%3]
		j := (i / 3) % len(s.Outcomes)
		outcome := s.Outcomes[j]
		if i%2 == 1 {
			outcome = i % 5
		}
		res, err := pool.StepSeries(id, outcome, s.Quality[j])
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		out = append(out, res)
		if i%4 == 0 && res.TotalSteps > 2 {
			if _, err := pool.TakeFeedbackSeries(id, res.TotalSteps-2); err != nil {
				t.Fatalf("step %d feedback: %v", i, err)
			}
		}
	}
	return out
}

func snapshotRecord(t *testing.T, pool *core.WrapperPool, id string) []byte {
	t.Helper()
	track, err := pool.ResolveSeries(id)
	if err != nil {
		t.Fatal(err)
	}
	var st core.SeriesState
	if err := pool.SnapshotTrack(track, &st); err != nil {
		t.Fatal(err)
	}
	return store.AppendSeriesRecord(nil, &st)
}

// TestLegacySeriesRecordRestores proves state directories written while
// records carried quality vectors still restore: the decoder skips the
// floats, and a pool restored from the old record steps on bit-identically
// to a run that was never interrupted.
func TestLegacySeriesRecordRestores(t *testing.T) {
	legacy, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	var st core.SeriesState
	if err := store.DecodeSeriesRecord(legacy, &st); err != nil {
		t.Fatalf("decoding legacy record: %v", err)
	}
	for i, r := range st.Records {
		if r.Quality != nil {
			t.Fatalf("record %d decoded a quality vector %v", i, r.Quality)
		}
	}
	// Every legacy record carried a full vector; re-encoding drops exactly
	// those floats (the count field stays, now zero).
	re := store.AppendSeriesRecord(nil, &st)
	if got, want := len(legacy)-len(re), len(st.Records)*8*legacyQualityWidth; got != want {
		t.Fatalf("re-encoding shrank the record by %d bytes, want %d (%d records × %d floats)",
			got, want, len(st.Records), legacyQualityWidth)
	}
	var scratch core.SeriesState
	for cut := 0; cut < len(legacy); cut++ {
		if err := store.DecodeSeriesRecord(legacy[:cut], &scratch); err == nil {
			t.Fatalf("legacy record truncated to %d/%d bytes decoded without error", cut, len(legacy))
		}
	}

	cont := newLegacyPool(t)
	id, err := cont.OpenSeries()
	if err != nil {
		t.Fatal(err)
	}
	driveLegacy(t, cont, id, 0, legacySteps)
	// The fixture must be the state this drive produces; if it is not, the
	// study or the drive changed and the comparison below proves nothing.
	if !bytes.Equal(snapshotRecord(t, cont, id), re) {
		t.Fatalf("fixture does not match the state of %d driven steps", legacySteps)
	}
	want := driveLegacy(t, cont, id, legacySteps, legacySteps+16)

	rest := newLegacyPool(t)
	if err := rest.RestoreTrack(&st); err != nil {
		t.Fatalf("restoring legacy record: %v", err)
	}
	if st.SeriesID() != id {
		t.Fatalf("legacy record holds series %q, want %q", st.SeriesID(), id)
	}
	got := driveLegacy(t, rest, id, legacySteps, legacySteps+16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d after restore diverged:\ncontinuous: %+v\nrestored:   %+v",
				legacySteps+i, want[i], got[i])
		}
	}
	if !bytes.Equal(snapshotRecord(t, rest, id), snapshotRecord(t, cont, id)) {
		t.Fatal("restored and continuous series state differ after stepping on")
	}
}
