package serve

import (
	"encoding/json"
	"strconv"
)

// tickDecoder decodes POST /v1/ticks JSONL lines into records. The two
// line shapes producers send,
//
//	{"office":"<name>","rssi":[n,…]}
//	{"office":"<name>","input":n}
//
// with any JSON whitespace, are scanned directly, in one pass: the
// record names the office by its bytes in the line and the samples are
// appended to the arena. Every other line goes through encoding/json,
// which also produces every parse error. Samples go through the same
// strconv call encoding/json makes, except short integer samples (see
// sample), so both paths yield identical records.
type tickDecoder struct {
	// arena holds the samples of the RSSI records decoded into it, each
	// at arena[rec.lo:rec.hi].
	arena []float64
}

// decode decodes one non-blank JSONL line into rec, whose name borrows
// line when the line was scanned directly. On error the arena is as it
// was.
func (d *tickDecoder) decode(line []byte, rec *tickRecord) error {
	lo := len(d.arena)
	if d.scan(line, rec) {
		return nil
	}
	d.arena = d.arena[:lo]
	var l tickLine
	if err := json.Unmarshal(line, &l); err != nil {
		return err
	}
	*rec = tickRecord{name: []byte(l.Office)}
	switch {
	case l.Input != nil:
		rec.kind, rec.input = recordInput, *l.Input
	case l.RSSI != nil:
		rec.kind, rec.lo = recordRSSI, lo
		d.arena = append(d.arena, l.RSSI...)
		rec.hi = len(d.arena)
	}
	return nil
}

// scan decodes a line of one of the two shapes into rec and reports
// whether it was one. On false, the arena may hold some of its samples.
func (d *tickDecoder) scan(line []byte, rec *tickRecord) bool {
	s := tickScanner{b: line}
	if !s.consume('{') || !s.key("office") {
		return false
	}
	name, ok := s.name()
	if !ok || !s.consume(',') {
		return false
	}
	switch {
	case s.key("rssi"):
		if !s.consume('[') {
			return false
		}
		arena, lo := d.arena, len(d.arena)
		for c := byte(','); c != ']'; {
			if c != ',' {
				return false
			}
			// Most samples are a negative two-digit dBm: convert it, and
			// take the byte after it, without a loop.
			if b := s.b[s.i:]; len(b) >= 4 && b[0] == '-' && b[1]-'1' < 9 && b[2]-'0' < 10 && (b[3] == ',' || b[3] == ']') {
				arena = append(arena, -float64(int64(b[1]-'0')*10+int64(b[2]-'0')))
				s.i, c = s.i+4, b[3]
				continue
			}
			v, err := sample(s.number())
			if err != nil {
				return false
			}
			arena = append(arena, v)
			c = s.next()
		}
		d.arena = arena
		// Field by field: assigning a composite literal to *rec cost a
		// tenth of the scan.
		rec.name, rec.kind, rec.input, rec.lo, rec.hi = name, recordRSSI, 0, lo, len(arena)
	case s.key("input"):
		n, err := strconv.ParseInt(string(s.number()), 10, 0)
		if err != nil {
			return false
		}
		rec.name, rec.kind, rec.input, rec.lo, rec.hi = name, recordInput, int(n), 0, 0
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
		// Every whitespace byte is at most ' ', so one compare passes
		// any other byte.
		if c := s.b[s.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		s.i++
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

// next consumes the next byte and returns it, or 0 at the end.
func (s *tickScanner) next() byte {
	s.skipSpace()
	if s.i == len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
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
// whose bytes, returned within the line, are its value with no
// unescaping or UTF-8 check.
func (s *tickScanner) name() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			name := s.b[s.i:j]
			s.i = j + 1
			return name, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
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
