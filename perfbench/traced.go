package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"openivm/internal/catalog"
	"openivm/internal/mvcc"
	"openivm/internal/wire"
)

// perLayer lists the metrics a traced run prints, in order.
var perLayer = []struct{ name, unit string }{
	{"wire.overhead_ms", "ms"},
	{"wire.rows_per_read", "count"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.plan_cache_hits", "count"},
	{"engine.plan_cache_misses", "count"},
	{"engine.insert_ms", "ms"},
	{"engine.update_ms", "ms"},
	{"engine.delete_ms", "ms"},
	{"engine.read_ms", "ms"},
	{"sqlparser.parse_us", "us"},
	{"plan.bind_us", "us"},
	{"exec.adhoc_ms", "ms"},
	{"exec.adhoc_w1_ms", "ms"},
	{"exec.parallel_speedup", "ratio"},
	{"exec.point_lookup_ms", "ms"},
	{"catalog.delta_rows_max", "count"},
	{"catalog.base_rows_drift", "count"},
	{"mvcc.commits_per_write", "ratio"},
	{"mvcc.conflict_abort_frac", "ratio"},
	{"mvcc.gc_versions_per_commit", "ratio"},
	{"mvcc.oldest_snapshot_ms_max", "ms"},
	{"storage.append_us", "us"},
	{"storage.wait_durable_p50_ms", "ms"},
	{"storage.wait_durable_p99_ms", "ms"},
	{"storage.fsyncs_per_commit", "ratio"},
	{"storage.wal_bytes_per_commit", "B"},
	{"storage.wal_bytes_per_write", "B"},
	{"storage.checkpoint_ms", "ms"},
	{"ivm.compile_ms", "ms"},
	{"ivmext.refresh_p50_ms", "ms"},
	{"ivmext.refresh_p99_ms", "ms"},
	{"ivmext.view_scan_ms", "ms"},
	{"ivmext.delta_rows_per_refresh", "ratio"},
	{"ivmext.propagations_per_read", "ratio"},
	{"ivmext.capture_stall_ms_per_s", "ms/s"},
	{"ivmext.parallel_refresh_frac", "ratio"},
	{"ivmext.refreshes", "count"},
	{"ivmext.pool_w1_ms", "ms"},
	{"ivmext.pool_speedup", "ratio"},
	{"ivmext.eager_tax_ms", "ms"},
	{"oltp.pending_deltas_max", "count"},
	{"htap.sync_p50_ms", "ms"},
	{"htap.sync_p99_ms", "ms"},
	{"htap.deltas_per_sync", "ratio"},
	{"htap.view_query_ms", "ms"},
	{"htap.unfenced_ops", "count"},
	{"htap.unfenced_lost", "count"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// smallSize is the scale of a side run (see tracedRun).
var smallSize = sizes{Groups: 2000, NumGroups: 100, Customers: 200, Regions: 20, Orders: 2000, WithGroups: true}

// tracedRun measures every layer. Layers on the workload's own path are
// measured under its load; a layer it bypasses (storage for the
// in-memory workloads, oltp and htap outside htap_sync) is measured by a
// short side run of the workload that owns it, at smallSize, so that
// every traced run reports every layer.
func tracedRun(cfg runConfig) (*result, error) {
	m, res, err := traceWorkload(cfg)
	if err != nil {
		return nil, err
	}
	side := map[kind][]string{}
	if cfg.w.kind != eagerOLTP {
		side[eagerOLTP] = []string{"storage."}
	}
	if cfg.w.kind != htapSync {
		side[htapSync] = []string{"oltp.", "htap."}
	}
	for k, prefixes := range side {
		owner := *workloads[k]
		owner.sz = smallSize
		owner.sz.WithGroups = owner.kind != htapSync
		sc := cfg
		sc.w, sc.seconds, sc.work = &owner, 2, filepath.Join(cfg.work, "side-"+owner.name)
		sm, sres, err := traceWorkload(sc)
		if err != nil {
			return nil, fmt.Errorf("side run %s: %w", owner.name, err)
		}
		res.Correct = res.Correct && sres.Correct
		res.Attempted += sres.Attempted
		res.Failed += sres.Failed
		for name, v := range sm {
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) {
					m[name] = v
				}
			}
		}
		fmt.Printf("  %s metrics from a %s side run at %d/%d rows\n", strings.Join(prefixes, ","), owner.name, smallSize.Orders, fullSize.Orders)
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	return res, nil
}

// counters is a snapshot of the system's own counters.
type counters struct {
	txn                                       mvcc.Stats
	srv                                       wire.ServerStats
	walBytes, fsyncs                          int64
	props, deltas, refreshes, parallel, stall int64
	syncs, pulled                             int
}

func snapshot(s *system) (counters, error) {
	st, err := s.writer.StatsV2()
	if err != nil {
		return counters{}, err
	}
	sto := s.served.StorageStats()
	c := counters{
		txn:       s.served.TxnStats(),
		srv:       st.Server,
		walBytes:  sto.WALBytes,
		fsyncs:    sto.Fsyncs,
		props:     atomic.LoadInt64(&s.ext.Stats.Propagations),
		deltas:    atomic.LoadInt64(&s.ext.Stats.DeltasCaught),
		refreshes: atomic.LoadInt64(&s.ext.Stats.Refreshes),
		parallel:  atomic.LoadInt64(&s.ext.Stats.ParallelRefreshes),
		stall:     atomic.LoadInt64(&s.ext.Stats.CaptureStallNanos),
	}
	if s.pipe != nil {
		c.syncs, c.pulled = s.pipe.Stats.Syncs, s.pipe.Stats.DeltasPulled
	}
	return c, nil
}

// sampler polls table sizes and snapshot age while a phase runs.
type sampler struct {
	stop, done                  chan struct{}
	deltaMax, driftMax, pending int
	oldestMS                    int64
}

func startSampler(s *system) *sampler {
	var deltas, bases []*catalog.Table
	for _, v := range s.views {
		comp, ok := s.ext.Compilation(v.Name)
		if !ok {
			continue
		}
		for _, b := range comp.BaseTableNames() {
			if t, err := s.db.Catalog().Table(comp.DeltaFor(b)); err == nil {
				deltas = append(deltas, t)
			}
		}
	}
	var initial []int
	for _, name := range s.baseTables() {
		if t, err := s.served.Catalog().Table(name); err == nil {
			bases = append(bases, t)
			initial = append(initial, t.RowCount())
		}
	}
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			n := 0
			for _, t := range deltas {
				n += t.RowCount()
			}
			sm.deltaMax = max(sm.deltaMax, n)
			for i, t := range bases {
				d := t.RowCount() - initial[i]
				sm.driftMax = max(sm.driftMax, d, -d)
			}
			if s.store != nil {
				sm.pending = max(sm.pending, s.store.PendingDeltas("orders"))
			}
			sm.oldestMS = max(sm.oldestMS, s.served.TxnStats().OldestSnapshotMS)
		}
	}()
	return sm
}

// halt stops the sampler and waits for it to exit.
func (sm *sampler) halt() {
	close(sm.stop)
	<-sm.done
}

// traceWorkload runs one workload traced: an open-loop phase with spans
// on, a closed-loop phase untraced and one traced (their throughput
// ratio is the tracing overhead), then the layer probes and the gate.
func traceWorkload(cfg runConfig) (map[string]float64, *result, error) {
	rec := newRecorder()
	// The closed loop here runs for half of the run, not a fifth, so the
	// write stream gets twice writesNeeded's closed-loop share.
	in := generate(cfg.w.sz, cfg.seed, cfg.writesNeeded()+int(3000*cfg.seconds/4))
	s, err := setup(cfg.w, in, filepath.Join(cfg.work, "traced"), rec)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer s.close()
	d := &loader{s: s, in: in}
	total := time.Duration(cfg.seconds * float64(time.Second))

	before, err := snapshot(s)
	if err != nil {
		return nil, nil, err
	}
	sm := startSampler(s)
	openStart := time.Now()
	open := d.openPhase(total / 2)
	openEnd := time.Now()
	sm.halt()
	after, err := snapshot(s)
	if err != nil {
		return nil, nil, err
	}
	// Alternate short untraced and traced closed-loop slices, so a
	// trend in the system's or the host's speed hits both alike.
	var untraced, traced phase
	for i := 0; i < 6; i++ {
		rec.on.Store(i%2 == 1)
		p := d.closedPhase(total / 12)
		if i%2 == 1 {
			traced = traced.merge(p)
		} else {
			untraced = untraced.merge(p)
		}
	}
	rec.on.Store(true)

	res := &result{Metrics: map[string]metric{}}
	for _, p := range []phase{open, untraced, traced} {
		if err := res.tally(p); err != nil {
			return nil, nil, err
		}
	}
	m := map[string]float64{}
	writes, reads := okCount(open.writes), okCount(open.reads)
	secs := openEnd.Sub(openStart).Seconds()
	win := func(name string) []float64 { return rec.window(name, openStart, openEnd) }

	m["wire.rows_per_read"] = ratio(float64(after.srv.StreamedRows-before.srv.StreamedRows), float64(reads))
	hits := float64(after.srv.PlanCacheHits - before.srv.PlanCacheHits)
	miss := float64(after.srv.PlanCacheMiss - before.srv.PlanCacheMiss)
	m["engine.plan_cache_hits"], m["engine.plan_cache_misses"] = hits, miss
	m["engine.plan_cache_hit_ratio"] = ratio(hits, hits+miss)
	m["catalog.delta_rows_max"] = float64(sm.deltaMax)
	m["catalog.base_rows_drift"] = float64(sm.driftMax)
	commits := float64(after.txn.Commits - before.txn.Commits)
	aborts := float64(after.txn.ConflictAborts - before.txn.ConflictAborts)
	m["mvcc.commits_per_write"] = ratio(commits, float64(writes))
	m["mvcc.conflict_abort_frac"] = ratio(aborts, commits+aborts)
	m["mvcc.gc_versions_per_commit"] = ratio(float64(after.txn.GCVersions-before.txn.GCVersions), commits)
	m["mvcc.oldest_snapshot_ms_max"] = float64(sm.oldestMS)
	appends := win("storage.append")
	m["storage.append_us"] = 1000 * mean(appends)
	waits := summarize(win("storage.wait_durable"))
	m["storage.wait_durable_p50_ms"], m["storage.wait_durable_p99_ms"] = waits.P50, waits.Tail
	m["storage.fsyncs_per_commit"] = ratio(float64(after.fsyncs-before.fsyncs), float64(len(appends)))
	wal := float64(after.walBytes - before.walBytes)
	m["storage.wal_bytes_per_commit"] = ratio(wal, float64(len(appends)))
	m["storage.wal_bytes_per_write"] = ratio(wal, float64(writes))
	refreshes := float64(after.refreshes - before.refreshes)
	m["ivmext.refreshes"] = refreshes
	m["ivmext.delta_rows_per_refresh"] = ratio(float64(after.deltas-before.deltas), refreshes)
	m["ivmext.propagations_per_read"] = ratio(float64(after.props-before.props), float64(reads))
	m["ivmext.capture_stall_ms_per_s"] = float64(after.stall-before.stall) / 1e6 / secs
	m["ivmext.parallel_refresh_frac"] = ratio(float64(after.parallel-before.parallel), refreshes)
	m["oltp.pending_deltas_max"] = float64(sm.pending)
	syncs := summarize(win("htap.sync"))
	m["htap.sync_p50_ms"], m["htap.sync_p99_ms"] = syncs.P50, syncs.Tail
	m["htap.deltas_per_sync"] = ratio(float64(after.pulled-before.pulled), float64(after.syncs-before.syncs))
	m["htap.view_query_ms"] = summarize(win("htap.view_query")).P50
	m["loadgen.lateness_p99_ms"] = summarize(append(lateness(open.writes), lateness(open.reads)...)).Tail
	m["trace.overhead_frac"] = ratio(untraced.opsPerSec(), traced.opsPerSec()) - 1

	if err := probe(m, s, d); err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	ops, lost, err := res.check(d)
	if err != nil {
		return nil, nil, err
	}
	m["htap.unfenced_ops"], m["htap.unfenced_lost"] = float64(ops), float64(lost)
	fmt.Printf("workload %s seed %d traced: %d spans, open loop %.1fs, tracing overhead %.1f%% (closed loop %.1f ops/s untraced, %.1f traced)\n",
		cfg.w.name, cfg.seed, rec.count(), secs, 100*m["trace.overhead_frac"], untraced.opsPerSec(), traced.opsPerSec())
	return m, res, nil
}
