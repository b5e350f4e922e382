package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// exposition is one scrape of the server's Prometheus text exposition,
// keyed by the series exactly as rendered: the metric name plus its label
// set, e.g. `tauw_stage_duration_seconds_sum{stage="decode"}`.
type exposition map[string]float64

// parseExposition reads the text format: comment lines are skipped, and
// every sample line is "series value" with an optional trailing timestamp.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the series ends at the closing
		// brace when there is one.
		cut := strings.LastIndexByte(text, '}')
		if cut < 0 {
			cut = strings.IndexByte(text, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(text) {
			return nil, fmt.Errorf("exposition line %d: no value: %q", line, text)
		}
		fields := strings.Fields(text[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("exposition line %d: no value: %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		out[text[:cut]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses GET /metrics.
func scrape(client *http.Client, base string) (exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// delta is the change of one series between two scrapes (a series absent
// from a scrape counts as 0).
func delta(before, after exposition, series string) float64 {
	return after[series] - before[series]
}

// meanDelta is Δsum/Δcount of a histogram or summary series pair, scaled
// by unit; 0 when nothing was observed in between.
func meanDelta(before, after exposition, name, labels string, unit float64) float64 {
	n := delta(before, after, name+"_count"+labels)
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum"+labels) / n * unit
}

// sumMatching adds the deltas of every series of the named metric.
func sumMatching(before, after exposition, name string) float64 {
	var total float64
	for k, v := range after {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v - before[k]
		}
	}
	return total
}
