package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// ingestChunkBytes is the size a POST /v1/ticks body is cut into for
// decoding. With at most 2×GOMAXPROCS chunks in flight, it bounds a
// request's decode memory whatever the body size.
const ingestChunkBytes = 64 << 10

// maxTickLineBytes bounds one tick line: a line that fills it without
// a newline fails with bufio.ErrTooLong. It is the maximum token size
// of the bufio.Scanner loop the tests hold this path to.
const maxTickLineBytes = 8 << 20

// maxEmptyReads is how many reads in a row may return neither data nor
// an error before the body counts as stuck (io.ErrNoProgress), as in
// bufio.Scanner.
const maxEmptyReads = 100

// ingestJSONL pushes a body of tick JSONL. Lines are applied in order;
// on a failing line everything before it stays accepted and is
// reported in res.
//
// The body is cut into newline-aligned chunks, up to 2×GOMAXPROCS of
// them in flight. The first is decoded on the calling goroutine, each
// later one on its own. Office lookups and pushes stay on the calling
// goroutine and take the chunks strictly in order, so the push
// sequence, the error and the counts are those of decoding line by
// line.
func (s *Server) ingestJSONL(body io.Reader, res *ingestResult) error {
	return s.ingestChunked(body, res, ingestChunkBytes, s.ing)
}

// tickPusher takes the decoded lines in order: the server's Ingestor,
// or a recorder in tests.
type tickPusher interface {
	Push(office int, rssi []float64) error
	PushInput(office, workstation int) error
}

// ingestChunked is ingestJSONL with the chunk size and the push target
// as parameters, so tests can cut bodies finely and record the pushes.
func (s *Server) ingestChunked(body io.Reader, res *ingestResult, size int, p tickPusher) error {
	r := chunkReader{body: body, size: size}
	// The oldest chunk is pushed before another is read, so the newest
	// one, whose tail the next chunk copies, stays in flight: the
	// window holds at least two.
	inFlight := make([]*tickChunk, 0, 2*runtime.GOMAXPROCS(0))
	defer func() {
		// On an early return, no decode goroutine may outlive the
		// request, and a chunk is recycled only once its goroutine is done.
		for _, c := range inFlight {
			c.wg.Wait()
			putChunk(c)
		}
	}()
	lineNo := 0 // lines pushed, blank ones included
	pushOldest := func() error {
		c := inFlight[0]
		inFlight = append(inFlight[:0], inFlight[1:]...)
		if c.inline {
			c.decode()
		}
		c.wg.Wait()
		err := s.pushChunk(c, lineNo, res, p)
		lineNo += c.lines
		putChunk(c)
		return err
	}
	var carry []byte
	for r.err == nil {
		if len(inFlight) == cap(inFlight) {
			if err := pushOldest(); err != nil {
				return err
			}
		}
		c := r.next(carry)
		if c == nil {
			break
		}
		carry = c.buf[len(c.data):]
		// The first chunk is decoded here when its turn comes, after the
		// window has been read ahead and handed off: a body of one chunk
		// costs no handoff, and a longer one decodes the rest meanwhile.
		c.inline = len(inFlight) == 0
		if !c.inline {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.decode()
			}()
		}
		inFlight = append(inFlight, c)
	}
	for len(inFlight) > 0 {
		if err := pushOldest(); err != nil {
			return err
		}
	}
	if r.err != io.EOF {
		return fmt.Errorf("line %d: %w", lineNo+1, r.err)
	}
	return nil
}

// pushChunk applies a decoded chunk, whose first line follows line
// lineNo of the body, to p as the line-by-line loop did: for each
// record the office lookup, then the push, then the
// neither-rssi-nor-input check; after the records, the chunk's decode
// error.
func (s *Server) pushChunk(c *tickChunk, lineNo int, res *ingestResult, p tickPusher) error {
	for i := range c.recs {
		rec := &c.recs[i]
		line := lineNo + rec.line
		id, ok := s.rec.IDOf(rec.office)
		if !ok {
			return fmt.Errorf("line %d: unknown office %q", line, rec.office)
		}
		switch rec.kind {
		case recordInput:
			if err := p.PushInput(id, rec.input); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			res.AcceptedInputs++
		case recordRSSI:
			if err := p.Push(id, c.arena[rec.lo:rec.hi]); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			res.AcceptedTicks++
		default:
			return fmt.Errorf("line %d: neither rssi nor input", line)
		}
	}
	if c.err != nil {
		return fmt.Errorf("line %d: %w", lineNo+c.lines, c.err)
	}
	return nil
}

// tickRecordKind is what a decoded line asks for.
type tickRecordKind uint8

const (
	// recordNeither is a line with neither rssi nor input. It is kept
	// as a record because an unknown office on the same line is
	// reported first.
	recordNeither tickRecordKind = iota
	recordRSSI
	recordInput
)

// tickRecord is one decoded non-blank line of a chunk.
type tickRecord struct {
	office string
	line   int // within the chunk, from 1
	kind   tickRecordKind
	input  int
	lo, hi int // the samples of an RSSI line: the chunk's arena[lo:hi]
}

// tickChunk is a run of whole body lines and what decoding them gave.
// Chunks are pooled.
type tickChunk struct {
	buf   []byte // data, then the start of the line the next chunk completes
	data  []byte // the lines to decode
	dec   tickDecoder
	recs  []tickRecord
	arena []float64
	lines int   // lines decoded, blank ones included; on error, through the failing one
	err   error // the decode error of line `lines`
	// inline marks a chunk the calling goroutine decodes itself; wg
	// waits for any other's decode goroutine.
	inline bool
	wg     sync.WaitGroup
}

var chunkPool = sync.Pool{New: func() any { return new(tickChunk) }}

// getChunk returns a pooled chunk with an n-byte buffer.
func getChunk(n int) *tickChunk {
	c := chunkPool.Get().(*tickChunk)
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	return c
}

// putChunk recycles c, unless a long line grew its buffer past the
// chunk size: pooled memory stays at the chunk size.
func putChunk(c *tickChunk) {
	if cap(c.buf) > ingestChunkBytes {
		return
	}
	c.data = nil
	chunkPool.Put(c)
}

// decode decodes the chunk's lines into records, stopping at the first
// line that fails.
func (c *tickChunk) decode() {
	c.recs, c.arena, c.lines, c.err = c.recs[:0], c.arena[:0], 0, nil
	var rec tickLine
	for data := c.data; len(data) > 0; {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		c.lines++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if err := c.dec.decode(line, &rec); err != nil {
			c.err = err
			return
		}
		r := tickRecord{office: rec.Office, line: c.lines}
		switch {
		case rec.Input != nil:
			r.kind, r.input = recordInput, *rec.Input
		case rec.RSSI != nil:
			r.kind, r.lo = recordRSSI, len(c.arena)
			c.arena = append(c.arena, rec.RSSI...)
			r.hi = len(c.arena)
		}
		c.recs = append(c.recs, r)
	}
}

// chunkReader cuts a body into newline-aligned chunks, delivering the
// lines a bufio.Scanner (ScanLines, 8 MiB maximum token) would.
type chunkReader struct {
	body io.Reader
	size int
	err  error // why reading stopped: io.EOF, a read error or bufio.ErrTooLong
}

// next returns the next chunk, which starts with carry, the unfinished
// line the previous chunk ended in; nil once reading has stopped with
// nothing left. A chunk fills to the chunk size and ends at its last
// newline; a line longer than that grows the buffer, up to
// maxTickLineBytes. When the body ends or fails, the chunk is the last
// one and keeps everything read, unterminated last line included.
func (r *chunkReader) next(carry []byte) *tickChunk {
	c := getChunk(max(r.size, len(carry)))
	buf := c.buf
	n := copy(buf, carry)
	searched := n // carry holds no newline
	empty := 0
	for {
		for n < len(buf) && r.err == nil {
			m, err := r.body.Read(buf[n:])
			n += m
			r.err = err
			if m > 0 {
				empty = 0
			} else if err == nil {
				if empty++; empty > maxEmptyReads {
					r.err = io.ErrNoProgress
				}
			}
		}
		c.buf = buf
		if r.err != nil {
			if n == 0 {
				putChunk(c)
				return nil
			}
			c.buf, c.data = buf[:n], buf[:n]
			return c
		}
		// The buffer is full.
		if i := bytes.LastIndexByte(buf[searched:], '\n'); i >= 0 {
			c.data = buf[:searched+i+1]
			return c
		}
		if len(buf) >= maxTickLineBytes {
			r.err = bufio.ErrTooLong
			putChunk(c)
			return nil
		}
		searched = len(buf)
		grown := min(2*len(buf), maxTickLineBytes)
		if cap(buf) >= grown {
			buf = buf[:grown]
		} else {
			buf = append(make([]byte, 0, grown), buf...)[:grown]
		}
	}
}
