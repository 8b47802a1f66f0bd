package main

import (
	"time"
)

// sample is one request of a load phase. Visible is the interval in
// which the request made earlier writes visible to its reader: the
// whole request for a view read, the Sync call for an HTAP read.
type sample struct {
	Due, Start, End time.Time
	VisStart        time.Time
	VisEnd          time.Time
	Err             error
}

// request runs request i and returns its visibility interval (zero
// values mean the whole request).
type request func(i int) (visStart, visEnd time.Time, err error)

// openLoop issues requests on one connection at a fixed rate: request i
// is due at start + i/rate, for every due time before until. A request
// is sent at its due time, or when the previous one returns if that is
// later, so a stall delays every request queued behind it.
func openLoop(c clock, start, until time.Time, rate float64, do request) []sample {
	period := time.Duration(float64(time.Second) / rate)
	var out []sample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(until) {
			return out
		}
		c.SleepUntil(due)
		out = append(out, issue(c, due, i, do))
	}
}

// closedLoop issues requests back to back until the deadline.
func closedLoop(c clock, until time.Time, do request) []sample {
	var out []sample
	for i := 0; c.Now().Before(until); i++ {
		now := c.Now()
		out = append(out, issue(c, now, i, do))
	}
	return out
}

// issue sends request i, due at due, and records it.
func issue(c clock, due time.Time, i int, do request) sample {
	s := sample{Due: due, Start: c.Now()}
	s.VisStart, s.VisEnd, s.Err = do(i)
	s.End = c.Now()
	if s.VisStart.IsZero() {
		s.VisStart, s.VisEnd = s.Start, s.End
	}
	return s
}

// latencies returns End-Due in ms of each successful sample, at its due
// time, and the number that failed.
func latencies(ss []sample) (out []point, failed int) {
	for _, s := range ss {
		if s.Err != nil {
			failed++
			continue
		}
		out = append(out, point{s.Due, ms(s.End.Sub(s.Due))})
	}
	return out, failed
}

// lateness returns, per request, how late the generator sent it in ms:
// its send time minus the later of its due time and the previous
// request's return, so waiting behind a slow request does not count.
func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		ready := s.Due
		if i > 0 && ss[i-1].End.After(ready) {
			ready = ss[i-1].End
		}
		out[i] = ms(s.Start.Sub(ready))
	}
	return out
}

// freshness attributes each successful write to the first successful
// read whose visibility interval started after the write was
// acknowledged, and returns ack-to-interval-end in ms per attributed
// write, at its ack time. Writes no read started after are not attributed; their count is
// returned. Both slices are in issue order (one connection each).
func freshness(writes, reads []sample) (out []point, unattributed int) {
	j := 0
	for _, w := range writes {
		if w.Err != nil {
			continue
		}
		for j < len(reads) && (reads[j].Err != nil || !reads[j].VisStart.After(w.End)) {
			j++
		}
		if j == len(reads) {
			unattributed++
			continue
		}
		out = append(out, point{w.End, ms(reads[j].VisEnd.Sub(w.End))})
	}
	return out, unattributed
}
