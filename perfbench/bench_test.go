package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"openivm/internal/sqltypes"
	"openivm/internal/storage"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {10, 0}, {11, 9}, {100, 90}, {500, 98}, {999, 98.9}, {1000, 99}, {50000, 99}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.P50 != 500 || s.Tail != 990 || s.Pct != 99 || s.N != 1000 {
		t.Fatalf("summarize = %+v, want p50 500, p99 990, n 1000", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.Tail != s.P50 || s.Pct != 50 {
		t.Fatalf("summarize of 3 samples = %+v, want the median as tail", s)
	}
	// Ten samples beyond the reported percentile.
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond p99, want 10", beyond)
	}
}

// fakeClock advances only when told to; SleepUntil oversleeps by slop.
type fakeClock struct {
	now  time.Time
	slop time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.slop)
	}
}

func TestOpenLoopDueTimeLatency(t *testing.T) {
	base := time.Unix(0, 0)
	c := &fakeClock{now: base}
	service := []time.Duration{250 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	ss := openLoop(c, base, base.Add(400*time.Millisecond), 10, func(i int) (time.Time, time.Time, error) {
		c.now = c.now.Add(service[i])
		return time.Time{}, time.Time{}, nil
	})
	lat, failed := latencies(ss)
	// Request 0 stalls 250ms; 1 and 2 queue behind it; 3 is on time.
	if want := []float64{250, 160, 70, 10}; failed != 0 || !reflect.DeepEqual(values(lat), want) {
		t.Fatalf("latencies = %v (failed %d), want %v", lat, failed, want)
	}
	if want := []float64{0, 0, 0, 0}; !reflect.DeepEqual(lateness(ss), want) {
		t.Fatalf("lateness = %v, want %v: waiting behind a stall is not generator lateness", lateness(ss), want)
	}
}

func TestGeneratorLateness(t *testing.T) {
	base := time.Unix(0, 0)
	c := &fakeClock{now: base, slop: 5 * time.Millisecond}
	ss := openLoop(c, base.Add(time.Millisecond), base.Add(301*time.Millisecond), 10, func(int) (time.Time, time.Time, error) {
		c.now = c.now.Add(20 * time.Millisecond)
		return time.Time{}, time.Time{}, errors.New("refused")
	})
	if want := []float64{5, 5, 5}; !reflect.DeepEqual(lateness(ss), want) {
		t.Fatalf("lateness = %v, want %v", lateness(ss), want)
	}
	if lat, failed := latencies(ss); len(lat) != 0 || failed != 3 {
		t.Fatalf("latencies %v failed %d, want none and 3 failed", lat, failed)
	}
}

func TestFreshnessAttribution(t *testing.T) {
	at := func(msec int) time.Time { return time.Unix(0, 0).Add(time.Duration(msec) * time.Millisecond) }
	w := func(ack int) sample { return sample{End: at(ack)} }
	r := func(from, to int, err error) sample { return sample{VisStart: at(from), VisEnd: at(to), Err: err} }
	writes := []sample{w(10), w(15), w(20), w(35), {End: at(36), Err: errors.New("x")}, w(60)}
	reads := []sample{
		r(15, 18, nil), // starts at 15: not after the write acked at 15
		r(25, 28, errors.New("failed")),
		r(30, 40, nil),
		r(50, 55, nil),
	}
	pts, unattributed := freshness(writes, reads)
	got := values(pts)
	// 10 -> read ending 18; 15 and 20 -> read ending 40; 35 -> 55; the
	// failed write is skipped; 60 has no later read.
	if want := []float64{8, 25, 20, 20}; !reflect.DeepEqual(got, want) || unattributed != 1 {
		t.Fatalf("freshness = %v, %d unattributed; want %v, 1", got, unattributed, want)
	}
}

func TestSliceMedian(t *testing.T) {
	start := time.Unix(0, 0)
	var pts []point
	for i := 0; i < 40; i++ {
		v := 10.0
		if i >= 30 {
			v = 100 // a stall covering the last quarter of the run
		}
		pts = append(pts, point{start.Add(time.Duration(i) * 100 * time.Millisecond), v + float64(i%3)})
	}
	if got := sliceMedian(pts, start, 4*time.Second, 4); got != 11 {
		t.Fatalf("sliceMedian = %v, want 11: one slow slice of four must not move it", got)
	}
	if got := sliceMedian(pts, start, 4*time.Second, 1); got != median(values(pts)) {
		t.Fatalf("one slice = %v, want the plain median %v", got, median(values(pts)))
	}
}

func TestSetupSecondsScalesByRefTask(t *testing.T) {
	// Per-set-up ratios 2, 1 and 3: the median is 2 refTask-seconds, at
	// whatever speed the host ran each pair.
	ts := []setupTime{{cpu: 2, ref: 1}, {cpu: 0.5, ref: 0.5}, {cpu: 6, ref: 2}}
	if got, want := setupSeconds(ts), 2*refTaskS; got != want {
		t.Fatalf("setupSeconds = %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sz := sizes{Groups: 3000, NumGroups: 10, Customers: 50, Regions: 5, Orders: 2500, WithGroups: true}
	dump := func(seed int64) string { return fmt.Sprintf("%#v", *generate(sz, seed, 5000)) }
	if a, b := dump(7), dump(7); a != b {
		t.Fatal("same seed produced different inputs")
	}
	if dump(7) == dump(8) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestWriteStreamKeepsTablesConstant(t *testing.T) {
	sz := sizes{Groups: 100, NumGroups: 10, Customers: 10, Regions: 2, Orders: 100, WithGroups: true}
	in := generate(sz, 1, 3000)
	live := map[string]map[string]bool{"groups": {}, "orders": {}}
	for _, op := range in.Writes {
		key := op.Params[0].String()
		switch op.Kind {
		case opInsert:
			live[op.Table][key] = true
		case opDelete:
			if !live[op.Table][key] {
				t.Fatalf("delete of %s key %s that was never inserted", op.Table, key)
			}
			delete(live[op.Table], key)
		case opUpdate:
			if op.Params[0].AsInt() >= int64(sz.Groups) {
				t.Fatalf("update of a non-base key: %s", op.SQL)
			}
		}
	}
	for table, keys := range live {
		if len(keys) > liveNew+1 {
			t.Fatalf("%s keeps %d inserted rows, want at most %d", table, len(keys), liveNew+1)
		}
	}
}

// errBackend returns fixed results from every call the decorator wraps.
type errBackend struct {
	storage.MemBackend
	err error
}

func (b errBackend) AppendCommit(*storage.CommitRecord) (uint64, error) { return 42, b.err }
func (b errBackend) WaitDurable(uint64) error                           { return b.err }
func (b errBackend) Checkpoint(*storage.CheckpointData) error           { return b.err }

func TestTimedBackendPassesErrorsThrough(t *testing.T) {
	sentinel := errors.New("disk on fire")
	for _, rec := range []*recorder{nil, newRecorder()} {
		b := &timedBackend{Backend: errBackend{err: sentinel}, rec: rec}
		lsn, err := b.AppendCommit(&storage.CommitRecord{})
		if lsn != 42 || err != sentinel {
			t.Fatalf("AppendCommit = %d, %v; want 42, the backend's error", lsn, err)
		}
		if err := b.WaitDurable(1); err != sentinel {
			t.Fatalf("WaitDurable = %v", err)
		}
		if err := b.Checkpoint(&storage.CheckpointData{}); err != sentinel {
			t.Fatalf("Checkpoint = %v", err)
		}
		if rec != nil && rec.count() != 3 {
			t.Fatalf("recorded %d spans, want 3", rec.count())
		}
	}
	ok := &timedBackend{Backend: errBackend{}, rec: newRecorder()}
	if _, err := ok.AppendCommit(nil); err != nil {
		t.Fatalf("AppendCommit = %v, want nil", err)
	}
}

func TestRowDiffCountsSymmetricDifference(t *testing.T) {
	r := func(k int64) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(k)} }
	a := []sqltypes.Row{r(3), r(1), r(2), r(2)}
	b := []sqltypes.Row{r(2), r(4), r(1)}
	if n := rowDiff(a, b); n != 3 { // 2 and 3 only in a, 4 only in b
		t.Fatalf("rowDiff = %d, want 3", n)
	}
	if n := rowDiff(a, a); n != 0 {
		t.Fatalf("rowDiff of a multiset with itself = %d, want 0", n)
	}
	typed := func(v sqltypes.Value) []sqltypes.Row {
		return []sqltypes.Row{{sqltypes.NewString("r0"), v}}
	}
	if n := rowDiff(typed(sqltypes.NewInt(3)), typed(sqltypes.NewFloat(3))); n != 0 {
		t.Fatalf("INTEGER 3 and FLOAT 3.0 counted as %d differing rows", n)
	}
	if n := rowDiff(typed(sqltypes.NewInt(3)), typed(sqltypes.NewInt(4))); n != 2 {
		t.Fatalf("rows differing in a value counted as %d differing rows, want 2", n)
	}
}

func TestCompareRefusesOtherCoreCounts(t *testing.T) {
	a := host{NProc: 2, GOMAXPROCS: 2}
	if err := comparable(a, a); err != nil {
		t.Fatal(err)
	}
	if err := comparable(a, host{NProc: 8, GOMAXPROCS: 8}); err == nil {
		t.Fatal("runs on 2 and 8 cores were compared")
	}
}
