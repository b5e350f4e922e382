package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share op; id and parent are unique within the run (parent 0 = root).
type span struct {
	op     uint64
	id     uint64
	parent uint64
	name   string
	start  int64 // ns since the log's origin
	end    int64
}

// spanID derives a span id from its operation (below 2^56) and its
// position k (1-based, below 256) inside that operation, so producers on
// different goroutines need no shared counter to link children to parents.
func spanID(op uint64, k int) uint64 { return op<<8 | uint64(k) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog is a
// disabled log: every method is a no-op, so untraced runs pay one pointer
// check per boundary.
type spanLog struct {
	origin time.Time
	every  uint64 // record operations whose id is a multiple of every

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog(every uint64, capacity int) *spanLog {
	return &spanLog{origin: time.Now(), every: every, spans: make([]span, 0, capacity)}
}

// sampled reports whether operation op records spans.
func (l *spanLog) sampled(op uint64) bool {
	return l != nil && op%l.every == 0
}

// ns converts a wall-clock instant into the log's time base.
func (l *spanLog) ns(t time.Time) int64 { return t.Sub(l.origin).Nanoseconds() }

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	name       string
	count      int
	totalNanos int64
	selfNanos  int64
}

func (s spanStat) meanMicros() float64 { return float64(s.totalNanos) / float64(s.count) / 1e3 }
func (s spanStat) selfMicros() float64 { return float64(s.selfNanos) / float64(s.count) / 1e3 }

// selfTimes derives each span's self time — its duration minus the part of
// its interval covered by its children — and aggregates by name.
func (l *spanLog) selfTimes() []spanStat {
	if l == nil {
		return nil
	}
	children := make(map[uint64][]span, len(l.spans))
	for _, s := range l.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	stats := map[string]*spanStat{}
	for _, s := range l.spans {
		st := stats[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			stats[s.name] = st
		}
		st.count++
		st.totalNanos += s.end - s.start
		st.selfNanos += s.end - s.start - covered(s, children[s.id])
	}
	out := make([]spanStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b spanStat) int {
		if a.name < b.name {
			return -1
		}
		if a.name > b.name {
			return 1
		}
		return 0
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int {
		switch {
		case x.a < y.a:
			return -1
		case x.a > y.a:
			return 1
		}
		return 0
	})
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeFile writes every span as one JSON object per line.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.op, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
