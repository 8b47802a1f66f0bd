package main

import (
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/storage"
)

// span is one timed call into a layer. Spans of one request share the
// request's id as parent; spans recorded inside the engine's own
// goroutines (the storage decorator) have parent 0.
type span struct {
	Name       string
	ID, Parent uint64
	Start, End time.Time
}

// recorder keeps spans in memory while on. A nil recorder records
// nothing, which is the untraced run.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{}
	r.on.Store(true)
	return r
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// newID allocates a request id (0 when not recording).
func (r *recorder) newID() uint64 {
	if !r.enabled() {
		return 0
	}
	return r.ids.Add(1)
}

// start returns the start time of a span, or the zero time when not
// recording, so the untraced path reads no clock.
func (r *recorder) start() time.Time {
	if !r.enabled() {
		return time.Time{}
	}
	return time.Now()
}

// end records a span that began at start (see start).
func (r *recorder) end(name string, parent uint64, start time.Time) {
	if start.IsZero() || !r.enabled() {
		return
	}
	s := span{Name: name, ID: r.ids.Add(1), Parent: parent, Start: start, End: time.Now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// window returns the durations in ms of the spans with the name that
// started inside [from, to).
func (r *recorder) window(name string, from, to time.Time) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && !s.Start.Before(from) && s.Start.Before(to) {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// timedBackend is a storage.Backend decorator that records a span around
// each commit append, durability wait and checkpoint, and passes every
// result through unchanged.
type timedBackend struct {
	storage.Backend
	rec *recorder
}

func (b *timedBackend) AppendCommit(rec *storage.CommitRecord) (uint64, error) {
	t := b.rec.start()
	lsn, err := b.Backend.AppendCommit(rec)
	b.rec.end("storage.append", 0, t)
	return lsn, err
}

func (b *timedBackend) WaitDurable(lsn uint64) error {
	t := b.rec.start()
	err := b.Backend.WaitDurable(lsn)
	b.rec.end("storage.wait_durable", 0, t)
	return err
}

func (b *timedBackend) Checkpoint(snap *storage.CheckpointData) error {
	t := b.rec.start()
	err := b.Backend.Checkpoint(snap)
	b.rec.end("storage.checkpoint", 0, t)
	return err
}
