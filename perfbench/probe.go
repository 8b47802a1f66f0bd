package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
)

// probe measures the layers from outside with in-process calls on the
// live system, after the load phases and before the gate. Its writes
// come from the same generated stream, so the gate still covers them.
func probe(m map[string]float64, s *system, d *loader) error {
	served := s.served.NewSession()
	defer served.Close()
	sess := s.db.NewSession()
	defer sess.Close()
	rec := s.rec
	timed := func(name string, f func() error) (float64, error) {
		t := time.Now()
		err := f()
		el := ms(time.Since(t))
		rec.end(name, 0, t)
		return el, err
	}
	repeat := func(name string, n int, f func(i int) error) ([]float64, error) {
		var out []float64
		for i := 0; i < n; i++ {
			el, err := timed(name, func() error { return f(i) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			out = append(out, el)
		}
		return out, nil
	}
	nextWrite := func() (writeOp, error) {
		if d.next == len(d.in.Writes) {
			return writeOp{}, errStreamEnd
		}
		d.next++
		return d.in.Writes[d.next-1], nil
	}
	// writeLocal applies the next n writes in-process on the served
	// engine and, for htap, syncs them to the view host.
	writeLocal := func(n int) error {
		for i := 0; i < n; i++ {
			op, err := nextWrite()
			if err != nil {
				return err
			}
			if _, err := served.Exec(op.SQL); err != nil {
				return err
			}
		}
		if s.pipe != nil {
			return s.pipe.Sync()
		}
		return nil
	}

	// wire: the same 1000-row read over the wire and in-process.
	const rangeRead = "SELECT * FROM customers WHERE cid < 1000"
	var overWire, inProc []float64
	for i := 0; i < 30; i++ {
		w, err := timed("wire.range_read", func() error { _, err := s.writer.Exec(rangeRead); return err })
		if err != nil {
			return err
		}
		p, err := timed("engine.range_read", func() error { _, err := served.Exec(rangeRead); return err })
		if err != nil {
			return err
		}
		overWire, inProc = append(overWire, w), append(inProc, p)
	}
	m["wire.overhead_ms"] = median(overWire) - median(inProc)

	// engine: each write class and the reader's op, in-process.
	byKind := map[opKind][]float64{}
	for len(byKind[opInsert]) < 10 || len(byKind[opUpdate]) < 10 || len(byKind[opDelete]) < 10 {
		op, err := nextWrite()
		if err != nil {
			return err
		}
		el, err := timed("engine.write", func() error { _, err := served.Exec(op.SQL); return err })
		if err != nil {
			return err
		}
		byKind[op.Kind] = append(byKind[op.Kind], el)
	}
	for k, name := range opNames {
		m["engine."+name+"_ms"] = median(byKind[opKind(k)])
	}
	if s.pipe != nil {
		if err := s.pipe.Sync(); err != nil {
			return err
		}
	}
	readSQL := func(i int) string {
		v := s.views[i%len(s.views)]
		if s.w.kind == eagerOLTP {
			return v.Query
		}
		return "SELECT * FROM " + v.Name
	}
	reads, err := repeat("engine.read", 10, func(i int) error { _, err := sess.Exec(readSQL(i)); return err })
	if err != nil {
		return err
	}
	m["engine.read_ms"] = median(reads)

	// sqlparser and plan: parse the workload's distinct texts; bind its
	// SELECTs.
	texts := map[string]bool{}
	for _, op := range d.in.Writes[:min(2000, len(d.in.Writes))] {
		texts[op.SQL] = true
	}
	var selects []string
	for _, v := range s.views {
		selects = append(selects, v.Query, "SELECT * FROM "+v.Name)
	}
	selects = append(selects, "SELECT * FROM orders WHERE oid = 17", rangeRead)
	for _, q := range selects {
		texts[q] = true
	}
	t := time.Now()
	for q := range texts {
		if _, err := sqlparser.Parse(q); err != nil {
			return fmt.Errorf("parse %q: %w", q, err)
		}
	}
	m["sqlparser.parse_us"] = us(time.Since(t)) / float64(len(texts))
	rec.end("sqlparser.parse", 0, t)
	var parsed []*sqlparser.SelectStmt
	for _, q := range selects {
		st, err := sqlparser.Parse(q)
		if err != nil {
			return err
		}
		if sel, ok := st.(*sqlparser.SelectStmt); ok {
			parsed = append(parsed, sel)
		}
	}
	const bindRounds = 20
	t = time.Now()
	for r := 0; r < bindRounds; r++ {
		for _, sel := range parsed {
			if _, err := sess.PlanSelect(sel); err != nil {
				return fmt.Errorf("bind: %w", err)
			}
		}
	}
	m["plan.bind_us"] = us(time.Since(t)) / float64(bindRounds*len(parsed))
	rec.end("plan.bind", 0, t)

	// exec: ad-hoc recomputes at the default workers and at one worker,
	// after one warm-up pass, in alternating rounds so drift in the
	// host's speed hits both alike; and a primary-key lookup.
	adhoc := map[string][]float64{}
	for r := -1; r < 4; r++ {
		for _, workers := range []string{"", "1"} {
			sess.SetPragma("workers", workers)
			for _, v := range s.views {
				el, err := timed("exec.adhoc", func() error { _, err := sess.Exec(v.Query); return err })
				if err != nil {
					return fmt.Errorf("adhoc: %w", err)
				}
				if r >= 0 {
					adhoc[workers] = append(adhoc[workers], el)
				}
			}
		}
	}
	sess.SetPragma("workers", "")
	def, w1 := median(adhoc[""]), median(adhoc["1"])
	m["exec.adhoc_ms"], m["exec.adhoc_w1_ms"], m["exec.parallel_speedup"] = def, w1, ratio(w1, def)
	lookups, err := repeat("exec.point_lookup", 10, func(i int) error {
		_, err := sess.Exec(fmt.Sprintf("SELECT * FROM orders WHERE oid = %d", i*7))
		return err
	})
	if err != nil {
		return err
	}
	m["exec.point_lookup_ms"] = median(lookups)

	// ivm: compile each view definition.
	comp := ivm.NewCompiler(s.db, ivm.DefaultOptions())
	compiles, err := repeat("ivm.compile", len(s.views), func(i int) error {
		_, err := comp.CompileSQL(s.views[i].create())
		return err
	})
	if err != nil {
		return err
	}
	m["ivm.compile_ms"] = mean(compiles)

	// ivmext: explicit refreshes in lazy mode, the view scan with nothing
	// pending, the refresh pool at one worker and at the default, and
	// the eager tax of a write.
	mode := s.db.Pragma("ivm_mode")
	s.db.SetPragma("ivm_mode", "lazy")
	var refreshes []float64
	for i := 0; i < 40; i++ {
		if err := writeLocal(4); err != nil {
			return err
		}
		el, err := timed("ivmext.refresh", func() error { return s.ext.Refresh(s.views[i%len(s.views)].Name) })
		if err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		refreshes = append(refreshes, el)
	}
	rs := summarize(refreshes)
	m["ivmext.refresh_p50_ms"], m["ivmext.refresh_p99_ms"] = rs.P50, rs.Tail
	if err := refreshAll(s); err != nil {
		return err
	}
	scans, err := repeat("ivmext.view_scan", 10, func(i int) error {
		_, err := sess.Exec("SELECT * FROM " + s.views[i%len(s.views)].Name)
		return err
	})
	if err != nil {
		return err
	}
	m["ivmext.view_scan_ms"] = median(scans)
	pool := map[string][]float64{}
	for i := 0; i < 6; i++ {
		workers := []string{"1", ""}[i%2]
		s.db.SetPragma("ivm_refresh_workers", workers)
		if err := writeLocal(60); err != nil {
			return err
		}
		el, err := timed("ivmext.pool_refresh", func() error { return refreshAll(s) })
		if err != nil {
			return err
		}
		pool[workers] = append(pool[workers], el)
	}
	s.db.SetPragma("ivm_refresh_workers", "")
	m["ivmext.pool_w1_ms"] = median(pool["1"])
	m["ivmext.pool_speedup"] = ratio(median(pool["1"]), median(pool[""]))
	tax := map[string][]float64{}
	for i := 0; i < 20; i++ {
		mode := []string{"lazy", "eager"}[i%2]
		s.db.SetPragma("ivm_mode", "lazy")
		if err := refreshAll(s); err != nil {
			return err
		}
		s.db.SetPragma("ivm_mode", mode)
		if s.pipe != nil {
			// The view host's writes are the replay of a Sync.
			for j := 0; j < 4; j++ {
				op, err := nextWrite()
				if err != nil {
					return err
				}
				if _, err := served.Exec(op.SQL); err != nil {
					return err
				}
			}
			el, err := timed("ivmext.eager_tax", s.pipe.Sync)
			if err != nil {
				return err
			}
			tax[mode] = append(tax[mode], el/4)
			continue
		}
		op, err := nextWrite()
		if err != nil {
			return err
		}
		el, err := timed("ivmext.eager_tax", func() error { _, err := sess.Exec(op.SQL); return err })
		if err != nil {
			return err
		}
		tax[mode] = append(tax[mode], el)
	}
	s.db.SetPragma("ivm_mode", "lazy")
	if err := refreshAll(s); err != nil {
		return err
	}
	s.db.SetPragma("ivm_mode", mode)
	m["ivmext.eager_tax_ms"] = median(tax["eager"]) - median(tax["lazy"])

	// storage: one checkpoint.
	if s.be != nil {
		el, err := timed("storage.checkpoint_total", s.served.Checkpoint)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		m["storage.checkpoint_ms"] = el
	}
	return nil
}

// refreshAll refreshes every view at once, one goroutine per view, and
// waits for all of them.
func refreshAll(s *system) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.views))
	for i, v := range s.views {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = s.ext.Refresh(name)
		}(i, v.Name)
	}
	wg.Wait()
	var msgs []string
	for _, err := range errs {
		if err != nil {
			msgs = append(msgs, err.Error())
		}
	}
	if len(msgs) > 0 {
		sort.Strings(msgs)
		return fmt.Errorf("refresh: %s", strings.Join(msgs, "; "))
	}
	return nil
}
