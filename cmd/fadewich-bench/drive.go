package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"time"
)

// slotTimes records when each online slot was due, sent and answered,
// and whether its POST failed.
type slotTimes struct {
	due, sent, done []time.Time
	failed          []bool
}

func (st *slotTimes) add(due, sent, done time.Time, failed bool) {
	st.due = append(st.due, due)
	st.sent = append(st.sent, sent)
	st.done = append(st.done, done)
	st.failed = append(st.failed, failed)
}

// n is the number of slots sent.
func (st *slotTimes) n() int { return len(st.due) }

// window is the measured interval: first slot due to last slot answered.
func (st *slotTimes) window() time.Duration {
	if st.n() == 0 {
		return 0
	}
	return st.done[st.n()-1].Sub(st.due[0])
}

// lags returns how late the generator sent each slot behind its due
// time, in ms.
func (st *slotTimes) lags() []float64 {
	out := make([]float64, st.n())
	for s := range out {
		out[s] = ms(st.sent[s].Sub(st.due[s]))
	}
	return out
}

// ingest returns each slot's due → answered time in ms: the POST round
// trip plus any wait a stall imposed before it could be sent.
func (st *slotTimes) ingest() []float64 {
	out := make([]float64, st.n())
	for s := range out {
		out[s] = ms(st.done[s].Sub(st.due[s]))
	}
	return out
}

// posts returns each slot's sent → answered time in ms.
func (st *slotTimes) posts() []float64 {
	out := make([]float64, st.n())
	for s := range out {
		out[s] = ms(st.done[s].Sub(st.sent[s]))
	}
	return out
}

// drive sends the online slots from one goroutine, as an open loop:
// slot s is due at start + s·slot; its content is fixed in advance, and
// a slot the generator reaches late is sent at once, so a stall in the
// system makes later slots late instead of slowing the schedule. send
// reports whether the slot's POSTs succeeded.
func drive(ctx context.Context, slot time.Duration, slots int, send func(s int) error) *slotTimes {
	defer quiesce()()
	st := &slotTimes{}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for s := 0; s < slots && ctx.Err() == nil; s++ {
		due := start.Add(time.Duration(s) * slot)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return st
			}
		}
		sent := time.Now()
		err := send(s)
		st.add(due, sent, time.Now(), err != nil)
	}
	return st
}

// quiesce collects the generator's garbage once and then stops its
// collector until the returned function is called. The generator holds
// every pre-encoded body, so each of its collections would mark a large
// heap on the CPUs the system under test needs; a memory limit well
// above what one measured window allocates keeps the pause bounded.
func quiesce() (restore func()) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	limit := debug.SetMemoryLimit(int64(m.HeapAlloc) + 512<<20)
	percent := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}
