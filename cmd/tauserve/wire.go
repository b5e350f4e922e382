// wire.go is the binary-transport face of the server: a TCP listener
// speaking the internal/wire frame protocol alongside the HTTP endpoints.
// Each connection gets one goroutine and one pooled scratch; requests
// pipeline (the client needn't wait for a response before sending the next
// frame) and responses coalesce — the handler flushes only when the reader
// has no buffered frame left or the output buffer is already large, so a
// pipelined burst costs one write syscall, not one per frame.
//
// Semantics are shared with the JSON endpoints by construction: the wire
// dispatch calls the same gateResult / joinFeedback helpers and the same
// pool entry points the HTTP handlers use, and maps errors to the same
// status codes. The differential test in wire_test.go pins the equivalence.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/wire"
	"github.com/iese-repro/tauw/internal/xslice"
)

// wireFlushThreshold flushes the response buffer early even while more
// requests are buffered, bounding per-connection memory under a deep
// pipeline of batch frames.
const wireFlushThreshold = 64 << 10

// wireServer is the binary listener's state: the tracked connections for
// drain, and the per-connection-constant hello payload and countermeasure
// index derived from the gate policy.
type wireServer struct {
	srv *Server
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup

	// hello is the precomputed hello response payload; levelIdx maps a
	// countermeasure name to its index in that table (how step responses
	// name the selected level in one byte).
	hello    []byte
	levelIdx map[string]uint8
}

func newWireServer(s *Server, ln net.Listener) (*wireServer, error) {
	policy := s.gate.Policy()
	levels := make([]string, 0, len(policy.Levels)+1)
	for _, l := range policy.Levels {
		levels = append(levels, l.Name)
	}
	levels = append(levels, policy.Terminal.Name)
	hello, err := wire.AppendHelloPayload(nil, &wire.Hello{Levels: levels})
	if err != nil {
		return nil, err
	}
	idx := make(map[string]uint8, len(levels))
	for i, name := range levels {
		idx[name] = uint8(i)
	}
	return &wireServer{
		srv:      s,
		ln:       ln,
		conns:    make(map[net.Conn]struct{}),
		hello:    hello,
		levelIdx: idx,
	}, nil
}

// ServeWire accepts binary-transport connections on ln until the listener
// closes (ShutdownWire during drain returns nil; any other accept failure
// is returned). At most one wire listener may be active per server.
func (s *Server) ServeWire(ln net.Listener) error {
	ws, err := newWireServer(s, ln)
	if err != nil {
		return err
	}
	s.wireMu.Lock()
	if s.wire != nil {
		s.wireMu.Unlock()
		return errors.New("tauserve: wire listener already active")
	}
	s.wire = ws
	s.wireMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ws.isDraining() {
				return nil
			}
			return err
		}
		if !ws.track(conn) {
			conn.Close()
			continue
		}
		go ws.handleConn(conn)
	}
}

// ShutdownWire drains the binary listener: stop accepting, unblock every
// idle connection via an immediate read deadline (frames already received
// still complete and their responses flush), and wait for the handlers up
// to ctx's deadline, force-closing stragglers after it. A server without a
// wire listener returns immediately.
func (s *Server) ShutdownWire(ctx context.Context) error {
	s.wireMu.Lock()
	ws := s.wire
	s.wireMu.Unlock()
	if ws == nil {
		return nil
	}
	ws.mu.Lock()
	ws.draining = true
	for conn := range ws.conns {
		conn.SetReadDeadline(time.Now())
	}
	ws.mu.Unlock()
	ws.ln.Close()
	done := make(chan struct{})
	go func() {
		ws.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		ws.mu.Lock()
		for conn := range ws.conns {
			conn.Close()
		}
		ws.mu.Unlock()
		return fmt.Errorf("wire drain incomplete: %w", ctx.Err())
	}
}

// track registers a connection (and its wg slot) unless the server is
// draining; registration and the drain flag share one critical section so
// a connection can never slip in after the drain walked the map.
func (ws *wireServer) track(conn net.Conn) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.draining {
		return false
	}
	ws.conns[conn] = struct{}{}
	ws.wg.Add(1)
	return true
}

func (ws *wireServer) forget(conn net.Conn) {
	ws.mu.Lock()
	delete(ws.conns, conn)
	ws.mu.Unlock()
}

func (ws *wireServer) isDraining() bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.draining
}

// wireScratch is one connection's reusable state: the frame reader's
// buffer, the response buffer, the batch dispatch arrays, and the quality
// vectors. Checked out once per connection, not per frame.
type wireScratch struct {
	rbuf    []byte
	out     []byte
	steps   []wireStep
	items   []core.SeriesStepItem
	back    []int32
	results []core.BatchResult
	bodies  []stepResponse
	status  []uint16

	// qf backs the decoded quality vectors, reset per frame exactly like
	// the JSON decoder's arena is per request.
	qf qfArena
}

var wireScratchPool = sync.Pool{New: func() any {
	return &wireScratch{rbuf: make([]byte, 4096), out: make([]byte, 0, 4096)}
}}

func (sc *wireScratch) release() {
	for i := range sc.steps {
		sc.steps[i] = wireStep{}
	}
	sc.steps = sc.steps[:0]
	for i := range sc.items {
		sc.items[i] = core.SeriesStepItem{}
	}
	sc.items = sc.items[:0]
	sc.back = sc.back[:0]
	for i := range sc.results {
		sc.results[i] = core.BatchResult{}
	}
	sc.results = sc.results[:0]
	for i := range sc.bodies {
		sc.bodies[i] = stepResponse{}
	}
	sc.bodies = sc.bodies[:0]
	sc.status = sc.status[:0]
	sc.out = sc.out[:0]
	wireScratchPool.Put(sc)
}

// handleConn is one connection's frame loop.
func (ws *wireServer) handleConn(conn net.Conn) {
	defer ws.wg.Done()
	defer ws.forget(conn)
	defer conn.Close()
	sc := wireScratchPool.Get().(*wireScratch)
	fr := wire.NewReader(conn, sc.rbuf)
	out := sc.out[:0]
	for {
		f, err := fr.Next()
		if err != nil {
			// EOF, the drain deadline, or a framing violation: flush what
			// is pending and drop the connection (past a framing error the
			// stream cannot be trusted, and a draining peer gets its
			// completed responses either way).
			if len(out) > 0 {
				conn.Write(out)
			}
			break
		}
		out = ws.dispatch(&f, out, sc)
		if len(out) > 0 && (fr.Buffered() == 0 || len(out) >= wireFlushThreshold) {
			if _, err := conn.Write(out); err != nil {
				break
			}
			out = out[:0]
		}
	}
	sc.rbuf = fr.Buffer()
	sc.out = out
	sc.release()
}

// appendWireError renders a FrameError response.
func appendWireError(out []byte, reqID uint32, status int, msg string) []byte {
	out, lenOff := wire.BeginFrame(out, wire.FrameError, reqID)
	out = wire.AppendErrorPayload(out, status, msg)
	return wire.EndFrame(out, lenOff)
}

// dispatch handles one request frame, appending the response to out.
func (ws *wireServer) dispatch(f *wire.Frame, out []byte, sc *wireScratch) []byte {
	sc.qf.reset()
	switch f.Type {
	case wire.FrameHello:
		resp, lenOff := wire.BeginFrame(out, wire.ResponseType(wire.FrameHello), f.ReqID)
		resp = append(resp, ws.hello...)
		return wire.EndFrame(resp, lenOff)
	case wire.FrameOpenSeries:
		return ws.dispatchOpenSeries(f, out)
	case wire.FrameStep:
		return ws.dispatchStep(f, out, sc)
	case wire.FrameStepBatch:
		return ws.dispatchStepBatch(f, out, sc)
	case wire.FrameFeedback:
		return ws.dispatchFeedback(f, out)
	case wire.FrameCloseSeries:
		return ws.dispatchCloseSeries(f, out)
	default:
		return appendWireError(out, f.ReqID, wire.StatusBadRequest,
			fmt.Sprintf("unknown frame type %#x", f.Type))
	}
}

func (ws *wireServer) dispatchOpenSeries(f *wire.Frame, out []byte) []byte {
	id, err := ws.srv.pool.OpenSeries()
	if err != nil {
		status := wire.StatusInternal
		if errors.Is(err, core.ErrTrackBudget) {
			status = wire.StatusUnavailable
		}
		return appendWireError(out, f.ReqID, status, err.Error())
	}
	resp, lenOff := wire.BeginFrame(out, wire.ResponseType(wire.FrameOpenSeries), f.ReqID)
	resp = wire.AppendSeriesIDPayload(resp, id)
	return wire.EndFrame(resp, lenOff)
}

func (ws *wireServer) dispatchCloseSeries(f *wire.Frame, out []byte) []byte {
	idBytes, err := wire.DecodeSeriesIDPayload(f.Payload)
	if err != nil {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, err.Error())
	}
	id := bytesToString(idBytes)
	if err := ws.srv.pool.CloseSeries(id); err != nil {
		if errors.Is(err, core.ErrUnknownSeries) || errors.Is(err, core.ErrUnknownTrack) {
			return appendWireError(out, f.ReqID, wire.StatusNotFound, fmt.Sprintf("unknown series %q", id))
		}
		return appendWireError(out, f.ReqID, wire.StatusInternal, err.Error())
	}
	resp, lenOff := wire.BeginFrame(out, wire.ResponseType(wire.FrameCloseSeries), f.ReqID)
	return wire.EndFrame(resp, lenOff)
}

// decodeWireStepItem validates one decoded item view into a wireStep with
// the JSON path's semantics: the factor count must match the channel set
// plus pixel size, deficits live in [0,1], pixel size must be positive.
// Semantic violations land in itemErr (per-item failure), mirroring the
// JSON decoder's split between syntax and semantic errors.
func (sc *wireScratch) decodeWireStepItem(v *wire.StepItemView, out *wireStep) {
	*out = wireStep{seriesID: bytesToString(v.SeriesID), outcome: v.Outcome}
	want := len(qualityNames) + 1
	if v.NumQuality() != want {
		out.itemErr = fmt.Errorf("expected %d quality factors (deficit channels plus pixel size), got %d",
			want, v.NumQuality())
		return
	}
	qf := sc.qf.next()
	for i := 0; i < want; i++ {
		qf[i] = v.QualityAt(i)
	}
	for i, val := range qf[:len(qualityNames)] {
		// Negated so NaN (which satisfies no comparison) is rejected too.
		if !(val >= 0 && val <= 1) {
			out.itemErr = fmt.Errorf("quality factor %q = %g outside [0,1]", qualityNames[i], val)
			return
		}
	}
	if pixel := qf[want-1]; !(pixel > 0) {
		out.itemErr = fmt.Errorf("pixel_size must be positive, got %g", pixel)
		return
	}
	out.qf = qf
}

func (ws *wireServer) dispatchStep(f *wire.Frame, out []byte, sc *wireScratch) []byte {
	start := time.Now()
	defer func() { ws.srv.latStep.Observe(time.Since(start)) }()
	v, rest, err := wire.DecodeStepItemView(f.Payload)
	if err != nil || len(rest) != 0 {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, "malformed step payload")
	}
	var step wireStep
	sc.decodeWireStepItem(&v, &step)
	if step.itemErr != nil {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, step.itemErr.Error())
	}
	res, err := ws.srv.pool.StepSeries(step.seriesID, step.outcome, step.qf)
	if err != nil {
		if errors.Is(err, core.ErrUnknownSeries) || errors.Is(err, core.ErrUnknownTrack) {
			return appendWireError(out, f.ReqID, wire.StatusNotFound,
				fmt.Sprintf("unknown series %q", step.seriesID))
		}
		return appendWireError(out, f.ReqID, wire.StatusInternal, err.Error())
	}
	resp, err := ws.srv.gateResult(step.seriesID, res)
	if err != nil {
		return appendWireError(out, f.ReqID, wire.StatusInternal, err.Error())
	}
	frame, lenOff := wire.BeginFrame(out, wire.ResponseType(wire.FrameStep), f.ReqID)
	frame = ws.appendStepResult(frame, &resp)
	return wire.EndFrame(frame, lenOff)
}

// appendStepResult renders the shared stepResponse shape as a wire step
// result, resolving the countermeasure to its hello-table index.
func (ws *wireServer) appendStepResult(dst []byte, r *stepResponse) []byte {
	res := wire.StepResult{
		Fused:        r.FusedOutcome,
		Uncertainty:  r.Uncertainty,
		StatelessU:   r.StatelessU,
		SeriesLen:    r.SeriesLen,
		TotalSteps:   r.TotalSteps,
		ModelVersion: r.ModelVersion,
		Accepted:     r.Accepted,
	}
	return wire.AppendStepResultPayload(dst, &res, ws.levelIdx[r.Countermeasure])
}

func (ws *wireServer) dispatchStepBatch(f *wire.Frame, out []byte, sc *wireScratch) []byte {
	start := time.Now()
	defer func() { ws.srv.latBatch.Observe(time.Since(start)) }()
	n, p, err := wire.DecodeBatchHeader(f.Payload)
	if err != nil {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, err.Error())
	}
	if n == 0 {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, "empty batch")
	}
	sc.steps = sc.steps[:0]
	for i := 0; i < n; i++ {
		var v wire.StepItemView
		if v, p, err = wire.DecodeStepItemView(p); err != nil {
			return appendWireError(out, f.ReqID, wire.StatusBadRequest, "malformed batch payload")
		}
		var step wireStep
		sc.decodeWireStepItem(&v, &step)
		sc.steps = append(sc.steps, step)
	}
	if len(p) != 0 {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, "malformed batch payload")
	}

	// From here the flow is the JSON batch handler's: route valid items to
	// the pool batch, scatter per-item results by the back index, one
	// status per item.
	sc.items = sc.items[:0]
	sc.back = sc.back[:0]
	sc.bodies = xslice.Grow(sc.bodies, n)
	sc.status = xslice.Grow(sc.status, n)
	for i := range sc.steps {
		st := &sc.steps[i]
		if st.itemErr != nil {
			sc.status[i] = wire.StatusBadRequest
			continue
		}
		sc.status[i] = 0 // resolved by the scatter pass below
		sc.items = append(sc.items, core.SeriesStepItem{
			SeriesID: st.seriesID,
			Outcome:  st.outcome,
			Quality:  st.qf,
		})
		sc.back = append(sc.back, int32(i))
	}
	sc.results = ws.srv.pool.StepBatchSeriesInto(sc.items, ws.srv.batchWorkers, sc.results)
	for j := range sc.results {
		br := &sc.results[j]
		i := sc.back[j]
		switch {
		case br.Err == nil:
			resp, gerr := ws.srv.gateResult(sc.steps[i].seriesID, br.Result)
			if gerr != nil {
				sc.status[i] = wire.StatusInternal
				sc.steps[i].itemErr = gerr
				continue
			}
			sc.status[i] = wire.StatusOK
			sc.bodies[i] = resp
		case errors.Is(br.Err, core.ErrUnknownSeries), errors.Is(br.Err, core.ErrUnknownTrack):
			sc.status[i] = wire.StatusNotFound
			sc.steps[i].itemErr = fmt.Errorf("unknown series %q", sc.steps[i].seriesID)
		default:
			sc.status[i] = wire.StatusInternal
			sc.steps[i].itemErr = br.Err
		}
	}

	frame, lenOff := wire.BeginFrame(out, wire.ResponseType(wire.FrameStepBatch), f.ReqID)
	frame, err = wire.AppendBatchHeader(frame, n)
	if err != nil {
		return appendWireError(frame[:lenOff], f.ReqID, wire.StatusInternal, err.Error())
	}
	for i := range sc.steps {
		if sc.status[i] == wire.StatusOK {
			frame = wire.AppendBatchItemStatus(frame, wire.StatusOK)
			frame = ws.appendStepResult(frame, &sc.bodies[i])
			continue
		}
		frame = wire.AppendBatchItemResult(frame, int(sc.status[i]), nil, 0, sc.steps[i].itemErr.Error())
	}
	return wire.EndFrame(frame, lenOff)
}

func (ws *wireServer) dispatchFeedback(f *wire.Frame, out []byte) []byte {
	start := time.Now()
	defer func() { ws.srv.latFeedback.Observe(time.Since(start)) }()
	idBytes, step, truth, err := wire.DecodeFeedbackRequestPayload(f.Payload)
	if err != nil {
		return appendWireError(out, f.ReqID, wire.StatusBadRequest, "malformed feedback payload")
	}
	resp, status, err := ws.srv.joinFeedback(bytesToString(idBytes), step, truth)
	if err != nil {
		return appendWireError(out, f.ReqID, status, err.Error())
	}
	res := wire.FeedbackResult{
		Step:         resp.Step,
		Correct:      resp.Correct,
		FusedOutcome: resp.FusedOutcome,
		Uncertainty:  resp.Uncertainty,
		TAQIMLeaf:    resp.TAQIMLeaf,
		ModelVersion: resp.ModelVersion,
		DriftAlarm:   resp.DriftAlarm,
	}
	frame, lenOff := wire.BeginFrame(out, wire.ResponseType(wire.FrameFeedback), f.ReqID)
	frame = wire.AppendFeedbackResultPayload(frame, &res)
	return wire.EndFrame(frame, lenOff)
}
