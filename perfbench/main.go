// Command perfbench is the end-to-end benchmark of the OpenIVM
// reproduction. For one workload and seed it generates every input, sets
// the system up, drives it from two wire connections (a writer and a
// reader, open-loop at fixed rates, then closed-loop for capacity),
// checks that every materialized view equals its query recomputed from
// scratch, and prints the metrics, last as one JSON line.
//
//	perfbench --workload lazy_dashboard --seed 1 --seconds 30 --trace 0
//	perfbench compare old.txt new.txt
//
// With --trace 1 it prints the per-layer metrics of a traced run instead
// of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

type kind int

const (
	lazyDashboard kind = iota
	eagerOLTP
	htapSync
)

// workload is one traffic mix. Rates are per connection, at a quarter to
// a half of the closed-loop capacity measured on a 2-vCPU host: low
// enough that latency stays near service time when the host loses CPU
// to steal.
type workload struct {
	name                string
	kind                kind
	sz                  sizes
	writeRate, readRate float64 // open-loop arrivals per second
}

var fullSize = sizes{Groups: 100000, NumGroups: 1000, Customers: 5000, Regions: 100, Orders: 100000, WithGroups: true}

func htapSize() sizes { s := fullSize; s.WithGroups = false; return s }

var workloads = []*workload{
	{name: "lazy_dashboard", kind: lazyDashboard, sz: fullSize, writeRate: 30, readRate: 100},
	{name: "eager_oltp", kind: eagerOLTP, sz: fullSize, writeRate: 20, readRate: 3},
	{name: "htap_sync", kind: htapSync, sz: htapSize(), writeRate: 20, readRate: 6},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// setupsBefore set-ups precede the measured one and setupsAfter
	// follow the load, so the setup_s median spans the whole run.
	setupsBefore = 4
	setupsAfter  = 4
	// openSlices and closedSlices are the time slices whose medians the
	// latency medians and max_ops_per_s are (see sliceMedian).
	openSlices   = 8
	closedSlices = 6
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	if err := run(runConfig{w: w, seed: *seed, seconds: float64(*seconds)}, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run performs one run and prints its result. Every file it writes is
// under a work directory in .bench_build, removed on return.
func run(cfg runConfig, traced bool) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	printHost()
	var res *result
	if traced {
		res, err = tracedRun(cfg)
	} else {
		res, err = untracedRun(cfg)
	}
	if err != nil {
		return err
	}
	if err := printResult(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("a view differs from its recompute")
	}
	return nil
}

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	work    string // work directory under .bench_build
}

// writesNeeded sizes the write stream: the open-loop arrivals, plus
// enough for closed-loop phases and probes at up to 3000 writes/s and
// for the unfenced check.
func (c runConfig) writesNeeded() int {
	return int(c.w.writeRate*c.seconds) + int(3000*c.seconds/4) + 2000 + unfencedWrites
}

// phase is what a load phase produced on the two connections.
type phase struct {
	writes, reads []sample
	start         time.Time
	elapsed       time.Duration
}

// loader feeds the write stream to a system; one writer goroutine at a
// time consumes it.
type loader struct {
	s    *system
	in   *inputs
	next int
}

var errStreamEnd = errors.New("write stream exhausted; raise writesNeeded")

func (d *loader) writeReq(int) (time.Time, time.Time, error) {
	if d.next == len(d.in.Writes) {
		return time.Time{}, time.Time{}, errStreamEnd
	}
	op := d.in.Writes[d.next]
	d.next++
	return time.Time{}, time.Time{}, d.s.write(op, d.s.rec.newID())
}

func (d *loader) readReq(i int) (time.Time, time.Time, error) {
	return d.s.read(i, d.s.rec.newID())
}

// openPhase runs the writer and the reader open-loop for dur.
func (d *loader) openPhase(dur time.Duration) phase {
	var p phase
	start := time.Now().Add(10 * time.Millisecond)
	until := start.Add(dur)
	p.start = start
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.reads = openLoop(realClock{}, start, until, d.s.w.readRate, d.readReq)
	}()
	p.writes = openLoop(realClock{}, start, until, d.s.w.writeRate, d.writeReq)
	<-done
	p.elapsed = time.Since(start)
	return p
}

// closedPhase runs the writer and the reader back to back for dur, in
// the workload's mix: each request advances its connection's virtual
// time by 1/rate, and a connection ahead of the other waits, so
// completed requests keep the open-loop proportion.
func (d *loader) closedPhase(dur time.Duration) phase {
	var p phase
	start := time.Now()
	until := start.Add(dur)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	vt := [2]float64{} // virtual time of the writer and the reader
	stop := time.AfterFunc(dur, func() {
		mu.Lock()
		defer mu.Unlock()
		cond.Broadcast()
	})
	defer stop.Stop()
	paced := func(side int, rate float64, do request) request {
		return func(i int) (time.Time, time.Time, error) {
			mu.Lock()
			for vt[side] > vt[1-side] && time.Now().Before(until) {
				cond.Wait()
			}
			mu.Unlock()
			a, b, err := do(i)
			mu.Lock()
			vt[side] += 1 / rate
			cond.Broadcast()
			mu.Unlock()
			return a, b, err
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.reads = closedLoop(realClock{}, until, paced(1, d.s.w.readRate, d.readReq))
	}()
	p.writes = closedLoop(realClock{}, until, paced(0, d.s.w.writeRate, d.writeReq))
	<-done
	p.elapsed = time.Since(start)
	return p
}

func (p phase) merge(q phase) phase {
	return phase{writes: append(p.writes, q.writes...), reads: append(p.reads, q.reads...), elapsed: p.elapsed + q.elapsed}
}

// opsPerSec is the rate of successful requests of a phase.
func (p phase) opsPerSec() float64 {
	return float64(okCount(p.writes)+okCount(p.reads)) / p.elapsed.Seconds()
}

// tally adds a phase's attempts and failures to res, failing the run if
// the write stream ran out.
func (res *result) tally(p phase) error {
	for _, ss := range [][]sample{p.writes, p.reads} {
		for _, s := range ss {
			if errors.Is(s.Err, errStreamEnd) {
				return s.Err
			}
			res.Attempted++
			if s.Err != nil {
				res.Failed++
			}
		}
	}
	return nil
}

// setupTime is one timed set-up: its CPU seconds, and the CPU seconds of
// refTask run just before it.
type setupTime struct{ cpu, ref float64 }

// setupSeconds is setup_s: the median over set-ups of set-up CPU seconds
// per CPU second of refTask, times refTask's CPU seconds on the recording
// host, that is, set-up time at the recording host's speed.
func setupSeconds(ts []setupTime) float64 {
	r := make([]float64, len(ts))
	for i, t := range ts {
		r[i] = t.cpu / t.ref
	}
	return refTaskS * median(r)
}

// timedSetup runs refTask and then sets the system up, both on one P
// (GOMAXPROCS 1), and returns the system with the CPU seconds of each.
// Wall-clock set-up time includes the CPU the hypervisor steals, and CPU
// time at the default GOMAXPROCS includes the GC's idle-priority mark
// workers, which run only when the other CPU happens to be free; on one P
// neither enters. No system is open while refTask runs, so its time does
// not depend on the system's heap.
func timedSetup(cfg runConfig, in *inputs, i int) (*system, setupTime, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t := setupTime{ref: refTask()}
	runtime.GC()
	cpu := cpuSeconds()
	s, err := setup(cfg.w, in, filepath.Join(cfg.work, fmt.Sprintf("setup%d", i)), nil)
	if err != nil {
		return nil, t, fmt.Errorf("setup: %w", err)
	}
	t.cpu = cpuSeconds() - cpu
	return s, t, nil
}

// setupTimes runs n timed set-ups, numbered from first, closing each.
// The host's speed drifts over seconds, so set-ups spread over a run
// give a steadier median than set-ups back to back.
func setupTimes(cfg runConfig, in *inputs, first, n int) ([]setupTime, error) {
	var times []setupTime
	for i := first; i < first+n; i++ {
		s, t, err := timedSetup(cfg, in, i)
		if err != nil {
			return nil, err
		}
		s.close()
		times = append(times, t)
	}
	return times, nil
}

// unfencedWrites caps the writes of the unfenced check.
const unfencedWrites = 500

// unfenced runs the htap_sync writer back to back and a Sync every
// 10 ms side by side for dur or unfencedWrites writes, without the
// fence, and returns the writes
// and Syncs attempted and how many of them failed: a Sync that returned
// an error (the loop stops at the first), and each row by which the OLAP
// mirror of orders then differs from the OLTP table.
func (d *loader) unfenced(dur time.Duration) (attempted, failed int, err error) {
	s := d.s
	stop := make(chan struct{})
	syncs := make(chan [2]int, 1) // Syncs attempted and failed
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				syncs <- [2]int{n, 0}
				return
			case <-time.After(10 * time.Millisecond):
			}
			n++
			if err := s.pipe.Sync(); err != nil {
				fmt.Println("  unfenced Sync failed:", err)
				syncs <- [2]int{n, 1}
				return
			}
		}
	}()
	for until := time.Now().Add(dur); err == nil && attempted < unfencedWrites && time.Now().Before(until); {
		if d.next == len(d.in.Writes) {
			err = errStreamEnd
			break
		}
		op := d.in.Writes[d.next]
		d.next++
		err = s.send(op, 0)
		attempted++
	}
	close(stop)
	sy := <-syncs
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = attempted+sy[0], sy[1]
	if failed == 0 {
		attempted++
		if s.pipe.Sync() != nil {
			failed++
		}
	}
	const q = "SELECT * FROM orders"
	remote, err := s.remote(q)
	if err != nil {
		return 0, 0, err
	}
	local, err := s.db.Exec(q)
	if err != nil {
		return 0, 0, err
	}
	return attempted, failed + rowDiff(local.Rows, remote), nil
}

// check runs the correctness gate, recording it in res, and for
// htap_sync the unfenced check, whose writes and Syncs sent and losses it
// returns rather than adding them to res: they measure the known Sync
// defect, whose count varies from run to run with the interleaving, not
// failures of the timed workload.
func (res *result) check(d *loader) (ops, lost int, err error) {
	gateErr := d.s.gate()
	res.Correct = gateErr == nil
	if gateErr != nil {
		fmt.Println("correctness gate FAILED:", gateErr)
	}
	if d.s.pipe == nil {
		return 0, 0, nil
	}
	ops, lost, err = d.unfenced(time.Second)
	if err != nil {
		return 0, 0, fmt.Errorf("unfenced check: %w", err)
	}
	fmt.Printf("  unfenced check (htap.Sync defect, not in failed): %d of %d writes and Syncs failed or out of sync\n", lost, ops)
	return ops, lost, nil
}

func untracedRun(cfg runConfig) (*result, error) {
	in := generate(cfg.w.sz, cfg.seed, cfg.writesNeeded())
	steal0, total0 := cpuTicks()
	setups, err := setupTimes(cfg, in, 0, setupsBefore)
	if err != nil {
		return nil, err
	}
	s, t, err := timedSetup(cfg, in, setupsBefore)
	if err != nil {
		return nil, err
	}
	setups = append(setups, t)
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	d := &loader{s: s, in: in}
	total := time.Duration(cfg.seconds * float64(time.Second))
	openSpan := total * 4 / 5
	open := d.openPhase(openSpan)
	// The closed loop runs as short slices, each timed in wall-clock and
	// in CPU seconds of this process; the capacities are slice medians.
	var closed phase
	var rates, perCPU []float64
	for i := 0; i < closedSlices; i++ {
		cpu0 := cpuSeconds()
		p := d.closedPhase((total - openSpan) / closedSlices)
		rates = append(rates, p.opsPerSec())
		perCPU = append(perCPU, ratio(float64(okCount(p.writes)+okCount(p.reads)), cpuSeconds()-cpu0))
		closed = closed.merge(p)
	}
	res := &result{Metrics: map[string]metric{}}
	for _, p := range []phase{open, closed} {
		if err := res.tally(p); err != nil {
			return nil, err
		}
	}
	if _, _, err := res.check(d); err != nil {
		return nil, err
	}

	wl, _ := latencies(open.writes)
	rl, _ := latencies(open.reads)
	fr, unattributed := freshness(open.writes, open.reads)
	ws, rs, fs := summarize(values(wl)), summarize(values(rl)), summarize(values(fr))
	late := summarize(append(lateness(open.writes), lateness(open.reads)...))
	heap := liveHeapMB()
	s.close()
	s = nil
	more, err := setupTimes(cfg, in, setupsBefore+1, setupsAfter)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	setupS := setupSeconds(setups)
	steal1, total1 := cpuTicks()
	p50 := func(pts []point) float64 { return sliceMedian(pts, open.start, openSpan, openSlices) }

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	// Latencies and capacities are printed below but not reported as
	// metrics: they follow the host's speed, which on a shared 2-vCPU VM
	// moved their medians by 13-39% between two sets of runs of the same
	// code, more than any bound a regression check can use (README.md).
	put("setup_s", setupS, "s")
	put("freshness_p50_ms", p50(fr), "ms")
	put("heap_mb", heap, "MB")

	fmt.Printf("workload %s seed %d: open loop %.1fs at %.0f writes/s + %.0f reads/s, closed loop %.1fs\n",
		cfg.w.name, cfg.seed, open.elapsed.Seconds(), cfg.w.writeRate, cfg.w.readRate, closed.elapsed.Seconds())
	for _, t := range []struct {
		name string
		s    summary
	}{{"write", ws}, {"read", rs}, {"freshness", fs}, {"generator lateness", late}} {
		fmt.Printf("  %-18s p50 %8.3f ms  p%-4g %8.3f ms  (n=%d)\n", t.name, t.s.P50, t.s.Pct, t.s.Tail, t.s.N)
	}
	var cpus, refs []float64
	for _, t := range setups {
		cpus, refs = append(cpus, t.cpu), append(refs, t.ref)
	}
	fmt.Printf("  set-up: %d set-ups on one P, median %.3f CPU s (%.3f to %.3f); refTask before each, median %.3f CPU s (%.3f on the recording host)\n",
		len(setups), median(cpus), slices.Min(cpus), slices.Max(cpus), median(refs), refTaskS)
	fmt.Printf("  write_p50_ms %.3f, read_p50_ms %.3f (medians of %d slice medians)\n", p50(wl), p50(rl), openSlices)
	fmt.Printf("  closed loop: %.1f writes/s, %.1f reads/s; max_ops_per_s %.1f, max_ops_per_cpu_s %.1f (medians of %d slices)\n",
		float64(len(closed.writes))/closed.elapsed.Seconds(), float64(len(closed.reads))/closed.elapsed.Seconds(), median(rates), median(perCPU), closedSlices)
	fmt.Printf("  freshness: %d writes with no later read left out\n", unattributed)
	fmt.Printf("  host CPU stolen by the hypervisor during the run: %.1f%%\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	fmt.Printf("  failed_frac %.6f (%d of %d operations)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func printResult(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
