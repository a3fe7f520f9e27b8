package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// fixedSchedule returns the due offsets of an open loop at a fixed rate
// per second over dur: one request every 1/rate seconds.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// sample is one open-loop request: when it was due, when the generator
// actually sent it and when the reply was complete, all relative to the
// schedule's start, plus the send's outcome.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latency counts from the due time, so a stalled server charges its stall
// to every request queued behind it, not only to the one it delayed.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration {
	if s.sent < s.due {
		return 0
	}
	return s.sent - s.due
}

// openLoop sends request i at due[i] after start over `conns` senders,
// each of which holds one request in flight at a time. When every sender
// is busy the next request waits, and that wait shows up as lateness and
// latency. send reports whether request i succeeded.
func openLoop(start time.Time, due []time.Duration, conns int, send func(conn, i int) bool) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := time.Until(start.Add(due[i])); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := send(c, i)
				out[i] = sample{due: due[i], sent: sent, done: time.Since(start), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop runs `clients` callers, each issuing its next operation as
// soon as the previous one returns, until dur has passed. op receives the
// client index and the operation's sequence number for that client.
func closedLoop(clients int, dur time.Duration, op func(client, seq int)) {
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				op(c, seq)
			}
		}(c)
	}
	wg.Wait()
}
