package main

import (
	"errors"
	"fmt"
	"strconv"
)

// scanner is a minimal JSON reader for the server's response shapes. It
// accepts any key order and skips unknown keys, and it parses numbers with
// strconv, so a float the server rendered in shortest form decodes to the
// exact bits it served. It is not a general decoder: strings the benchmark
// reads (series ids, countermeasure names) must not contain escapes.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("json offset %d: %s", s.i, fmt.Sprintf(format, args...))
	}
	s.i = len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

func (s *scanner) want(c byte) {
	if s.peek() != c {
		s.fail("want %q", c)
		return
	}
	s.i++
}

// str returns the raw contents of a string without escapes.
func (s *scanner) str() []byte {
	s.want('"')
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			out := s.b[start:s.i]
			s.i++
			return out
		case '\\':
			s.fail("escaped string")
			return nil
		}
		s.i++
	}
	s.fail("unterminated string")
	return nil
}

// skipStr skips a string, escapes included.
func (s *scanner) skipStr() {
	s.want('"')
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			s.i++
			return
		case '\\':
			s.i++
		}
		s.i++
	}
	s.fail("unterminated string")
}

func (s *scanner) token() []byte {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == ',' || c == '}' || c == ']' || c == ' ' || c == '\n' || c == '\r' || c == '\t':
			return s.b[start:s.i]
		}
		s.i++
	}
	return s.b[start:s.i]
}

func (s *scanner) int() int {
	v, err := strconv.Atoi(string(s.token()))
	if err != nil {
		s.fail("%v", err)
	}
	return v
}

func (s *scanner) float() float64 {
	v, err := strconv.ParseFloat(string(s.token()), 64)
	if err != nil {
		s.fail("%v", err)
	}
	return v
}

func (s *scanner) bool() bool {
	switch string(s.token()) {
	case "true":
		return true
	case "false":
		return false
	}
	s.fail("want a boolean")
	return false
}

// skip skips any value.
func (s *scanner) skip() {
	switch s.peek() {
	case '"':
		s.skipStr()
	case '{':
		s.object(func([]byte) { s.skip() })
	case '[':
		s.array(s.skip)
	default:
		s.token()
	}
}

// object walks an object, calling field for each key with the scanner
// positioned at the value; field must consume the value.
func (s *scanner) object(field func(key []byte)) {
	s.want('{')
	if s.peek() == '}' {
		s.i++
		return
	}
	for s.err == nil {
		key := s.str()
		s.want(':')
		field(key)
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return
		default:
			s.fail("want ',' or '}'")
		}
	}
}

func (s *scanner) array(elem func()) {
	s.want('[')
	if s.peek() == ']' {
		s.i++
		return
	}
	for s.err == nil {
		elem()
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return
		default:
			s.fail("want ',' or ']'")
		}
	}
}

// Bits of the step fields a response must carry.
const (
	fFused = 1 << iota
	fU
	fSU
	fLen
	fTotal
	fVersion
	fCountermeasure
	fAccepted
	allStepFields = 1<<iota - 1
)

var errMissingField = errors.New("step response misses a field")

// stepObject reads one step response object.
func (s *scanner) stepObject(out *served) {
	seen := 0
	s.object(func(key []byte) {
		switch string(key) {
		case "fused_outcome":
			out.fused, seen = s.int(), seen|fFused
		case "uncertainty":
			out.u, seen = s.float(), seen|fU
		case "stateless_uncertainty":
			out.su, seen = s.float(), seen|fSU
		case "series_len":
			out.seriesLen, seen = s.int(), seen|fLen
		case "total_steps":
			out.totalSteps, seen = s.int(), seen|fTotal
		case "model_version":
			out.modelVersion, seen = uint64(s.int()), seen|fVersion
		case "countermeasure":
			out.countermeasure, seen = internLevel(s.str()), seen|fCountermeasure
		case "accepted":
			out.accepted, seen = s.bool(), seen|fAccepted
		default:
			s.skip()
		}
	})
	if s.err == nil && seen != allStepFields {
		s.err = errMissingField
	}
}

// levelNames interns the countermeasure names so decoding a batch does not
// allocate one string per item.
var levelNames = map[string]string{}

func internLevel(b []byte) string {
	if n, ok := levelNames[string(b)]; ok {
		return n
	}
	return string(b)
}

// decodeStep parses a POST /v1/step response body.
func decodeStep(body []byte) (served, error) {
	s := scanner{b: body}
	var out served
	s.stepObject(&out)
	return out, s.err
}

// batchItem is one decoded POST /v1/steps result.
type batchItem struct {
	status int
	step   served
}

// decodeBatch parses a POST /v1/steps response into dst (reused).
func decodeBatch(body []byte, dst []batchItem) ([]batchItem, error) {
	s := scanner{b: body}
	dst = dst[:0]
	s.object(func(key []byte) {
		if string(key) != "results" {
			s.skip()
			return
		}
		s.array(func() {
			var it batchItem
			s.object(func(key []byte) {
				switch string(key) {
				case "status":
					it.status = s.int()
				case "step":
					s.stepObject(&it.step)
				default:
					s.skip()
				}
			})
			dst = append(dst, it)
		})
	})
	return dst, s.err
}

// decodeFeedback parses a POST /v1/feedback response body.
func decodeFeedback(body []byte) (joined, error) {
	s := scanner{b: body}
	var out joined
	seen := 0
	s.object(func(key []byte) {
		switch string(key) {
		case "step":
			out.step, seen = s.int(), seen|1
		case "correct":
			out.correct, seen = s.bool(), seen|2
		case "fused_outcome":
			out.fused, seen = s.int(), seen|4
		case "uncertainty":
			out.u, seen = s.float(), seen|8
		case "taqim_leaf":
			out.leaf, seen = s.int(), seen|16
		case "model_version":
			out.modelVersion, seen = uint64(s.int()), seen|32
		default:
			s.skip()
		}
	})
	if s.err == nil && seen != 63 {
		s.err = errors.New("feedback response misses a field")
	}
	return out, s.err
}

// decodeSeriesID parses a POST /v1/series response body.
func decodeSeriesID(body []byte) (string, error) {
	s := scanner{b: body}
	var id string
	s.object(func(key []byte) {
		if string(key) == "series_id" {
			id = string(s.str())
			return
		}
		s.skip()
	})
	if s.err == nil && id == "" {
		s.err = errors.New("series response has no series_id")
	}
	return id, s.err
}
