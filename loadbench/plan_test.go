package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// The measured window of a plan carries the offered step rate, and every
// track's operations are ordered open, steps (each before its feedback),
// close.
func TestPlanOffersItsRate(t *testing.T) {
	for _, rate := range []float64{1000, 5000, 20000} {
		p := makePlan(rand.New(rand.NewPCG(1, 2)), 1024, rate, 4*time.Second, 0.25, 300, 2)
		steps := 0
		for i := range p.ops {
			if p.ops[i].kind == kStep && p.measured(&p.ops[i]) {
				steps++
			}
		}
		got := float64(steps) / 4
		if math.Abs(got-rate)/rate > 0.03 {
			t.Errorf("rate %v: measured window offers %v steps/s", rate, got)
		}
		for ti := range p.tracks {
			ops := p.tracks[ti].ops
			if p.ops[ops[0]].kind != kOpen || p.ops[ops[len(ops)-1]].kind != kClose {
				t.Fatalf("track %d does not open first and close last", ti)
			}
			next := int8(0)
			for _, i := range ops[1 : len(ops)-1] {
				switch op := p.ops[i]; op.kind {
				case kStep:
					if op.k != next {
						t.Fatalf("track %d: step %d out of order", ti, op.k)
					}
					next++
				case kFeedback:
					if op.k != next-1 {
						t.Fatalf("track %d: feedback %d not right after its step", ti, op.k)
					}
				default:
					t.Fatalf("track %d: %s inside the track", ti, kindNames[op.kind])
				}
			}
		}
	}
}
