package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const stepBody = `{"series_id":"s1","fused_outcome":14,"uncertainty":0.16999868434304594,` +
	`"stateless_uncertainty":0.057567727446924025,"series_len":1,"total_steps":1,` +
	`"model_version":1,"countermeasure":"ignore-reading","accepted":false}`

func stepExpect() expect {
	return expect{fused: 14, u: 0.16999868434304594, su: 0.057567727446924025, seriesLen: 1,
		totalSteps: 1, leaf: 1, countermeasure: "ignore-reading"}
}

func stepCapture() *capture {
	raw := []byte(stepBody)
	off := bytes.Index(raw, []byte(`"uncertainty":`)) + len(`"uncertainty":`)
	return &capture{raw: raw, decode: decodeStep, want: stepExpect(), uOffset: off}
}

func TestSelfTestCatchesPerturbations(t *testing.T) {
	if err := selfTest(stepCapture()); err != nil {
		t.Fatal(err)
	}
}

// A decoder that drops the uncertainty would let every perturbation of it
// through; the self-test must say so.
func TestSelfTestFailsWhenTheCheckIsBlind(t *testing.T) {
	c := stepCapture()
	blind := func(b []byte) (served, error) {
		s, err := decodeStep(b)
		s.u = c.want.u
		return s, err
	}
	c.decode = blind
	if err := selfTest(c); err == nil || !strings.Contains(err.Error(), "corrupting") {
		t.Fatalf("self-test with a blind decoder: %v", err)
	}
}

func TestCheckStepIsExact(t *testing.T) {
	got, err := decodeStep([]byte(stepBody))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStep(got, stepExpect()); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*served){
		"fused":          func(s *served) { s.fused++ },
		"uncertainty":    func(s *served) { s.u = math.Nextafter(s.u, 1) },
		"stateless":      func(s *served) { s.su = math.Nextafter(s.su, 0) },
		"series_len":     func(s *served) { s.seriesLen++ },
		"total_steps":    func(s *served) { s.totalSteps++ },
		"model_version":  func(s *served) { s.modelVersion++ },
		"countermeasure": func(s *served) { s.countermeasure = "accept" },
		"accepted":       func(s *served) { s.accepted = !s.accepted },
	} {
		s := got
		mutate(&s)
		if checkStep(s, stepExpect()) == nil {
			t.Errorf("a changed %s passed", name)
		}
	}
}

func TestDecodeBatchAndFeedback(t *testing.T) {
	body := `{"results":[{"status":200,"step":` + stepBody + `},` +
		`{"status":404,"error":"unknown series \"x\""}],"ok":1,"failed":1}`
	items, err := decodeBatch([]byte(body), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].status != 200 || items[1].status != 404 {
		t.Fatalf("items = %+v", items)
	}
	if err := checkStep(items[0].step, stepExpect()); err != nil {
		t.Fatal(err)
	}
	fb, err := decodeFeedback([]byte(`{"series_id":"s1","step":1,"correct":true,"fused_outcome":14,` +
		`"uncertainty":0.16999868434304594,"taqim_leaf":1,"model_version":1,"drift_alarm":false}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFeedback(fb, stepExpect(), 14); err != nil {
		t.Fatal(err)
	}
	if checkFeedback(fb, stepExpect(), 3) == nil {
		t.Error("a join judged correct against the wrong truth passed")
	}
	if _, err := decodeStep([]byte(`{"fused_outcome":1}`)); err == nil {
		t.Error("a step response missing fields decoded")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newSpanLog(1, 16)
	root := spanID(7, 1)
	l.add(span{op: 7, id: root, name: "op", start: 0, end: 100})
	l.add(span{op: 7, id: spanID(7, 2), parent: root, name: "a", start: 10, end: 40})
	l.add(span{op: 7, id: spanID(7, 3), parent: root, name: "b", start: 30, end: 60})
	for _, st := range l.selfTimes() {
		if st.name == "op" && st.selfNanos != 50 {
			t.Errorf("root self time %d ns, want 50", st.selfNanos)
		}
	}
}
