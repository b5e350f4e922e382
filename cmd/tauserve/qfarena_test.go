package main

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/iese-repro/tauw/internal/wire"
)

// TestDecodersReuseQualityVectors guards the serving decoders' steady
// state: the wrappers keep no quality vector past its step, so a JSON
// batch decode and a wire step decode must draw every vector from reused
// storage and allocate nothing once warm. Each decoded vector must still
// hold its own item's factors — reuse across requests, never aliasing
// within one.
func TestDecodersReuseQualityVectors(t *testing.T) {
	const batchSize = 64
	req := batchStepRequest{}
	for i := 0; i < batchSize; i++ {
		req.Steps = append(req.Steps, stepRequest{
			SeriesID:  fmt.Sprintf("s%d", i+1),
			Outcome:   14,
			Quality:   map[string]float64{qualityNames[i%len(qualityNames)]: float64(i%100) / 100},
			PixelSize: float64(100 + i),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var d decoder
	var steps []wireStep
	decodeBatch := func() {
		d.reset(body)
		if steps, err = d.decodeBatchRequest(steps); err != nil || len(steps) != batchSize {
			t.Fatalf("decode: %v (%d items)", err, len(steps))
		}
	}
	decodeBatch()
	if allocs := testing.AllocsPerRun(50, decodeBatch); allocs != 0 {
		t.Errorf("steady-state JSON batch decode allocates %.1f times per request, want 0", allocs)
	}
	for i, st := range steps {
		want, semErr := qualityFromMap(req.Steps[i].Quality, req.Steps[i].PixelSize)
		if semErr != nil {
			t.Fatal(semErr)
		}
		if fmt.Sprint(st.qf) != fmt.Sprint(want) {
			t.Fatalf("item %d decoded %v, want %v", i, st.qf, want)
		}
	}

	qf := make([]float64, len(qualityNames)+1)
	qf[0], qf[len(qf)-1] = 0.25, 160
	payload, err := wire.AppendStepItem(nil, "s1", 14, qf)
	if err != nil {
		t.Fatal(err)
	}
	var sc wireScratch
	var step wireStep
	decodeStep := func() {
		sc.qf.reset()
		v, rest, err := wire.DecodeStepItemView(payload)
		if err != nil || len(rest) != 0 {
			t.Fatalf("wire decode: %v (%d trailing bytes)", err, len(rest))
		}
		sc.decodeWireStepItem(&v, &step)
		if step.itemErr != nil {
			t.Fatal(step.itemErr)
		}
	}
	decodeStep()
	if allocs := testing.AllocsPerRun(50, decodeStep); allocs != 0 {
		t.Errorf("steady-state wire step decode allocates %.1f times per frame, want 0", allocs)
	}
	if fmt.Sprint(step.qf) != fmt.Sprint(qf) {
		t.Fatalf("wire step decoded %v, want %v", step.qf, qf)
	}
}
