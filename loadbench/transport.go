package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/wire"
)

// transport carries the open-loop operations to the server. conn picks
// the connection a series is pinned to. When keep is set, step also
// returns the response's raw bytes for the self-test.
type transport interface {
	open(conn int) (string, error)
	step(conn int, id string, sub, k int, keep bool) (served, []byte, error)
	feedback(conn int, id string, step, truth int) (joined, error)
	close(conn int, id string) error
	// decodeRaw decodes bytes step returned with keep set, and uOffset
	// locates a byte inside their uncertainty.
	decodeRaw(raw []byte) (served, error)
	uOffset(raw []byte) int
}

// fragments renders every recorded frame once as the JSON tail of a step
// item — `,"outcome":…,"quality":{…},"pixel_size":…}` — with every float
// in shortest round-trip form (up to 17 significant digits), so building a
// request is a copy.
func fragments(series [][]frame) [][]string {
	names := augment.Names()
	out := make([][]string, len(series))
	var b []byte
	for s, fs := range series {
		for _, f := range fs {
			b = append(b[:0], `,"outcome":`...)
			b = strconv.AppendInt(b, int64(f.outcome), 10)
			b = append(b, `,"quality":{`...)
			for i, n := range names {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendQuote(b, n)
				b = append(b, ':')
				b = strconv.AppendFloat(b, f.quality[i], 'g', -1, 64)
			}
			b = append(b, `},"pixel_size":`...)
			b = strconv.AppendFloat(b, f.quality[len(names)], 'g', -1, 64)
			b = append(b, '}')
			out[s] = append(out[s], string(b))
		}
	}
	return out
}

// wireTransport drives the binary transport through wire.Client, one
// client per connection; concurrent callers pipeline on it.
type wireTransport struct {
	clients []*wire.Client
	series  [][]frame
}

func dialWire(addr string, conns int, series [][]frame) (*wireTransport, error) {
	t := &wireTransport{series: series}
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.shutdown()
			return nil, fmt.Errorf("dialing binary transport: %w", err)
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *wireTransport) shutdown() {
	for _, c := range t.clients {
		c.Close()
	}
}

func (t *wireTransport) open(conn int) (string, error) { return t.clients[conn].OpenSeries() }

func (t *wireTransport) step(conn int, id string, sub, k int, keep bool) (served, []byte, error) {
	f := &t.series[sub][k]
	var res wire.StepResult
	if err := t.clients[conn].Step(id, f.outcome, f.quality, &res); err != nil {
		return served{}, nil, err
	}
	var raw []byte
	if keep {
		// The client hands back decoded fields only; re-encoding them with
		// the protocol's own encoder reproduces the payload bytes.
		raw = wire.AppendStepResultPayload(nil, &res, t.levelIndex(res.Countermeasure))
	}
	return fromWire(&res), raw, nil
}

func (t *wireTransport) levelIndex(name string) uint8 {
	for i, l := range t.clients[0].Levels() {
		if l == name {
			return uint8(i)
		}
	}
	return 0xFF
}

func (t *wireTransport) decodeRaw(raw []byte) (served, error) {
	var res wire.StepResult
	if _, err := wire.DecodeStepResultPayload(raw, &res, t.clients[0].Levels()); err != nil {
		return served{}, err
	}
	return fromWire(&res), nil
}

// uOffset is the first byte of the uncertainty: it follows the 8-byte
// fused outcome in the step result payload.
func (t *wireTransport) uOffset([]byte) int { return 8 }

func (t *wireTransport) feedback(conn int, id string, step, truth int) (joined, error) {
	var res wire.FeedbackResult
	if err := t.clients[conn].Feedback(id, step, truth, &res); err != nil {
		return joined{}, err
	}
	return fromWireFeedback(&res), nil
}

func (t *wireTransport) close(conn int, id string) error { return t.clients[conn].CloseSeries(id) }

// httpTransport drives the JSON endpoints over at most conns keep-alive
// connections.
type httpTransport struct {
	client *http.Client
	base   string
	frags  [][]string
	bufs   sync.Pool
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func newHTTPTransport(base string, conns int, frags [][]string) *httpTransport {
	t := &httpTransport{client: newHTTPClient(conns), base: base, frags: frags}
	t.bufs.New = func() any { return new(bytes.Buffer) }
	return t
}

// do sends one request and returns the body of a response with the
// wanted status.
func (t *httpTransport) do(method, path string, body []byte, want int) ([]byte, error) {
	return doHTTP(t.client, method, t.base+path, body, want)
}

func doHTTP(client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

func (t *httpTransport) open(int) (string, error) {
	body, err := t.do("POST", "/v1/series", nil, http.StatusCreated)
	if err != nil {
		return "", err
	}
	return decodeSeriesID(body)
}

func (t *httpTransport) step(_ int, id string, sub, k int, _ bool) (served, []byte, error) {
	b := t.bufs.Get().(*bytes.Buffer)
	b.Reset()
	b.WriteString(`{"series_id":`)
	b.WriteString(strconv.Quote(id))
	b.WriteString(t.frags[sub][k])
	body, err := t.do("POST", "/v1/step", b.Bytes(), http.StatusOK)
	t.bufs.Put(b)
	if err != nil {
		return served{}, nil, err
	}
	got, err := decodeStep(body)
	return got, body, err
}

func (t *httpTransport) decodeRaw(raw []byte) (served, error) { return decodeStep(raw) }

// uOffset is the first digit of the uncertainty's value.
func (t *httpTransport) uOffset(raw []byte) int {
	return bytes.Index(raw, []byte(`"uncertainty":`)) + len(`"uncertainty":`)
}

func (t *httpTransport) feedback(_ int, id string, step, truth int) (joined, error) {
	body := fmt.Appendf(nil, `{"series_id":%q,"step":%d,"truth":%d}`, id, step, truth)
	out, err := t.do("POST", "/v1/feedback", body, http.StatusOK)
	if err != nil {
		return joined{}, err
	}
	return decodeFeedback(out)
}

func (t *httpTransport) close(_ int, id string) error {
	_, err := t.do("DELETE", "/v1/series/"+id, nil, http.StatusNoContent)
	return err
}
