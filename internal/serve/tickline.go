package serve

import (
	"encoding/json"
	"strconv"
)

// tickDecoder decodes POST /v1/ticks JSONL records. The two line shapes
// producers send,
//
//	{"office":"<name>","rssi":[n,…]}
//	{"office":"<name>","input":n}
//
// with any JSON whitespace, are scanned directly; every other line goes
// through encoding/json, which also produces every parse error. Numbers
// go through the same strconv calls encoding/json makes, except short
// integer samples (see sample), so both paths yield identical records.
//
// A decoded record borrows the decoder's storage: RSSI and Input are
// valid until the next decode. Ingestor.Push copies the samples, so a
// request can decode every line into one decoder.
type tickDecoder struct {
	rssi  []float64
	input int
}

// decode fills rec from one JSONL line.
func (d *tickDecoder) decode(line []byte, rec *tickLine) error {
	if d.scan(line, rec) {
		return nil
	}
	// Decode into a zeroed record: encoding/json leaves fields the line
	// does not mention untouched.
	*rec = tickLine{}
	return json.Unmarshal(line, rec)
}

// scan decodes a canonical line into rec and reports whether it was
// one. On false, rec holds partial results.
func (d *tickDecoder) scan(line []byte, rec *tickLine) bool {
	s := tickScanner{b: line}
	if !s.consume('{') || !s.key("office") {
		return false
	}
	name, ok := s.name()
	if !ok || !s.consume(',') {
		return false
	}
	rec.Office = name
	switch {
	case s.key("rssi"):
		if !s.consume('[') {
			return false
		}
		if d.rssi == nil {
			// Non-nil, so "rssi":[] decodes to an empty slice, as in
			// encoding/json.
			d.rssi = make([]float64, 0, 16)
		}
		rssi := d.rssi[:0]
		if !s.consume(']') {
			for {
				v, err := sample(s.number())
				if err != nil {
					return false
				}
				rssi = append(rssi, v)
				if s.consume(']') {
					break
				}
				if !s.consume(',') {
					return false
				}
			}
		}
		d.rssi = rssi
		rec.RSSI, rec.Input = rssi, nil
	case s.key("input"):
		n, err := strconv.ParseInt(string(s.number()), 10, 0)
		if err != nil {
			return false
		}
		d.input = int(n)
		rec.RSSI, rec.Input = nil, &d.input
	default:
		return false
	}
	return s.consume('}') && s.end()
}

// sample converts a literal that number returned to float64. Producers
// send integer dBm, so an integer of at most 15 digits, which float64
// holds exactly, is converted directly; "-0" gives −0, as from
// strconv.ParseFloat. Every other literal goes through
// strconv.ParseFloat.
func sample(num []byte) (float64, error) {
	neg := len(num) > 0 && num[0] == '-'
	ds := num
	if neg {
		ds = num[1:]
	}
	if len(ds) == 0 || len(ds) > 15 || digits(ds, 0) < len(ds) {
		return strconv.ParseFloat(string(num), 64)
	}
	var n int64
	for _, c := range ds {
		n = n*10 + int64(c-'0')
	}
	v := float64(n)
	if neg {
		v = -v
	}
	return v, nil
}

// tickScanner walks a line byte by byte. Every method skips the JSON
// whitespace in front of what it matches.
type tickScanner struct {
	b []byte
	i int
}

func (s *tickScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume consumes c.
func (s *tickScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes the object key "k" and its colon, spelled exactly.
func (s *tickScanner) key(k string) bool {
	s.skipSpace()
	j := s.i
	if j+len(k)+2 > len(s.b) || s.b[j] != '"' || string(s.b[j+1:j+1+len(k)]) != k || s.b[j+1+len(k)] != '"' {
		return false
	}
	s.i = j + len(k) + 2
	return s.consume(':')
}

// name consumes a string of printable ASCII other than the backslash,
// whose bytes are its value with no unescaping or UTF-8 check.
func (s *tickScanner) name() (string, bool) {
	if !s.consume('"') {
		return "", false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			name := string(s.b[s.i:j])
			s.i = j + 1
			return name, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return "", false
		}
	}
	return "", false
}

// number consumes the longest prefix matching the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns it, or
// nil when there is none.
func (s *tickScanner) number() []byte {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = digits(b, start); i == start {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			return nil
		}
	}
	num := b[s.i:i]
	s.i = i
	return num
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// end reports whether only whitespace is left.
func (s *tickScanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}
