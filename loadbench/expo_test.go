package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a GET /metrics capture from `tauserve -preset
// tiny -state-dir …` after one step, one feedback and a few checkpoints.
func TestParseCapturedExposition(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`tauw_steps_total`:                                                  1,
		`tauw_checkpoint_wal_bytes_total`:                                   129,
		`tauw_go_gc_cycles_total`:                                           10,
		`tauw_request_duration_seconds_sum{endpoint="step"}`:                7.3915e-05,
		`tauw_request_duration_seconds_count{endpoint="feedback"}`:          1,
		`tauw_stage_duration_seconds_sum{stage="fsync"}`:                    0.004817501,
		`tauw_stage_duration_seconds_count{stage="fsync"}`:                  26,
		`tauw_shed_total{endpoint="step",reason="queue_full"}`:              0,
		`tauw_request_duration_seconds_bucket{endpoint="step",le="0.0001"}`: 1,
	} {
		got, ok := e[series]
		if !ok {
			t.Errorf("%s missing", series)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

func TestExpositionDeltas(t *testing.T) {
	before, err := parseExposition(strings.NewReader(`
# TYPE tauw_stage_duration_seconds histogram
tauw_stage_duration_seconds_sum{stage="decode"} 0.5
tauw_stage_duration_seconds_count{stage="decode"} 10
tauw_shed_total{endpoint="step",reason="deadline"} 1
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(`
tauw_stage_duration_seconds_sum{stage="decode"} 0.75
tauw_stage_duration_seconds_count{stage="decode"} 20
tauw_shed_total{endpoint="step",reason="deadline"} 3
tauw_shed_total{endpoint="steps",reason="queue_full"} 4 1700000000000
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := meanDelta(before, after, "tauw_stage_duration_seconds", `{stage="decode"}`, 1e6); math.Abs(got-25000) > 1e-6 {
		t.Errorf("decode mean = %v us, want 25000", got)
	}
	if got := meanDelta(before, after, "tauw_stage_duration_seconds", `{stage="encode"}`, 1e6); got != 0 {
		t.Errorf("unobserved stage mean = %v, want 0", got)
	}
	if got := sumMatching(before, after, "tauw_shed_total"); got != 6 {
		t.Errorf("shed delta = %v, want 6", got)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	if _, err := parseExposition(strings.NewReader("tauw_steps_total\n")); err == nil {
		t.Error("a sample without a value parsed")
	}
	if _, err := parseExposition(strings.NewReader("tauw_steps_total one\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}
