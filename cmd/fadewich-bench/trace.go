package main

import "time"

// span is one timed call at a layer boundary. Spans of one slot (or
// cluster epoch) share its number as their trace ID; Parent names the
// span that caused this one.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spans keeps a traced run's spans in memory until the benchmark ends.
// A nil *spans is an untraced run: add is a no-op.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) add(name, parent string, trace int, start, end time.Time) {
	if s == nil {
		return
	}
	s.list = append(s.list, span{
		Name:   name,
		Trace:  trace,
		Start:  int64(start.Sub(s.t0)),
		End:    int64(end.Sub(s.t0)),
		Parent: parent,
	})
}
