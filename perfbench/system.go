package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"openivm/internal/engine"
	"openivm/internal/htap"
	"openivm/internal/ivmext"
	"openivm/internal/oltp"
	"openivm/internal/sqltypes"
	"openivm/internal/storage"
	"openivm/internal/wire"
)

// viewDef is a materialized view and its defining query.
type viewDef struct {
	Name, Query string
}

func (v viewDef) create() string { return "CREATE MATERIALIZED VIEW " + v.Name + " AS " + v.Query }

var (
	groupsView = viewDef{"query_groups",
		"SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS total_count FROM groups GROUP BY group_index"}
	revenueView = viewDef{"region_revenue",
		"SELECT customers.region, SUM(orders.amount) AS revenue, COUNT(*) AS order_count FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY customers.region"}
)

var schema = map[string]string{
	"groups":    "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)",
	"customers": "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)",
	"orders":    "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)",
}

// system is one set-up instance of a workload: the engines, the server
// and the two load connections.
type system struct {
	w     *workload
	views []viewDef
	rec   *recorder

	db     *engine.DB // engine hosting the views (the OLAP side for htap)
	ext    *ivmext.Extension
	served *engine.DB // engine behind the wire server
	srv    *wire.Server
	addr   string
	writer *wire.Client
	reader *wire.Client // nil for htap: the pipeline owns its connection
	be     *timedBackend
	dir    string

	store *oltp.Store
	pipe  *htap.Pipeline
	// fence makes OLTP writes and Sync take turns in the timed phases.
	// htap.Pipeline.Sync pulls delta_<table> and then deletes every row
	// of it, so a write captured between the pull and the delete is lost;
	// loader.unfenced measures that loss on every run.
	fence sync.Mutex
}

func (s *system) baseTables() []string {
	if s.w.sz.WithGroups {
		return []string{"groups", "customers", "orders"}
	}
	return []string{"customers", "orders"}
}

// setup builds a workload's system: engines, schema, base load, views,
// server and connections. dir holds the durable backend's files.
func setup(w *workload, in *inputs, dir string, rec *recorder) (s *system, err error) {
	s = &system{w: w, rec: rec, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.views = []viewDef{revenueView}
	if w.sz.WithGroups {
		s.views = []viewDef{groupsView, revenueView}
	}
	if w.kind == htapSync {
		return s, s.setupHTAP(in)
	}
	s.db = engine.Open(w.name, engine.DialectDuckDB)
	s.served = s.db
	s.ext = ivmext.Install(s.db)
	if w.kind == eagerOLTP {
		disk, err := storage.OpenDisk(dir)
		if err != nil {
			return s, err
		}
		s.be = &timedBackend{Backend: disk, rec: rec}
		if err := s.db.AttachBackend(s.be); err != nil {
			return s, err
		}
		s.db.SetPragma("ivm_mode", "eager")
	}
	if err := s.load(s.db, in); err != nil {
		return s, err
	}
	admin := s.db.NewSession()
	defer admin.Close()
	for _, v := range s.views {
		if _, err := admin.Exec(v.create()); err != nil {
			return s, fmt.Errorf("create %s: %w", v.Name, err)
		}
	}
	if err := s.serve(); err != nil {
		return s, err
	}
	if s.reader, err = wire.Dial(s.addr); err != nil {
		return s, err
	}
	if w.kind == lazyDashboard {
		for name, sql := range preparedWrites {
			if err := s.writer.Prepare(name, sql); err != nil {
				return s, fmt.Errorf("prepare %s: %w", name, err)
			}
		}
	}
	return s, nil
}

func (s *system) setupHTAP(in *inputs) error {
	s.store = oltp.New(s.w.name)
	s.served = s.store.DB
	if err := s.load(s.served, in); err != nil {
		return err
	}
	if err := s.serve(); err != nil {
		return err
	}
	pc, err := wire.Dial(s.addr)
	if err != nil {
		return err
	}
	s.pipe = htap.New(pc)
	s.db, s.ext = s.pipe.OLAP, s.pipe.Ext
	return s.pipe.CreateMaterializedView(revenueView.create())
}

// load creates the base tables on db and runs the generated load.
func (s *system) load(db *engine.DB, in *inputs) error {
	sess := db.NewSession()
	defer sess.Close()
	for _, t := range s.baseTables() {
		if _, err := sess.Exec(schema[t]); err != nil {
			return fmt.Errorf("create %s: %w", t, err)
		}
	}
	for _, stmt := range in.Load {
		if _, err := sess.Exec(stmt); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

func (s *system) serve() error {
	s.srv = wire.NewServer(s.served)
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = addr
	s.writer, err = wire.Dial(addr)
	return err
}

// write sends one write on the writer connection.
func (s *system) write(op writeOp, parent uint64) error {
	if s.w.kind == htapSync {
		s.fence.Lock()
		defer s.fence.Unlock()
	}
	return s.send(op, parent)
}

// send is write without the fence.
func (s *system) send(op writeOp, parent uint64) error {
	t := s.rec.start()
	var err error
	if s.w.kind == lazyDashboard {
		_, err = s.writer.ExecPrepared(op.prepName(), op.Params...)
	} else {
		_, err = s.writer.Exec(op.SQL)
	}
	s.rec.end("wire.write", parent, t)
	return err
}

// read runs the reader's i-th request: a view SELECT (lazy_dashboard),
// a view's defining query (eager_oltp), or Sync then a view SELECT
// (htap_sync). For htap it returns the Sync interval: the part that
// makes earlier writes visible.
func (s *system) read(i int, parent uint64) (visStart, visEnd time.Time, err error) {
	v := s.views[i%len(s.views)]
	switch s.w.kind {
	case lazyDashboard:
		t := s.rec.start()
		_, err = s.reader.Exec("SELECT * FROM " + v.Name)
		s.rec.end("wire.read", parent, t)
	case eagerOLTP:
		t := s.rec.start()
		_, err = s.reader.Exec(v.Query)
		s.rec.end("wire.read", parent, t)
	case htapSync:
		s.fence.Lock()
		visStart = time.Now()
		t := s.rec.start()
		err = s.pipe.Sync()
		s.rec.end("htap.sync", parent, t)
		visEnd = time.Now()
		s.fence.Unlock()
		if err != nil {
			return visStart, visEnd, err
		}
		t = s.rec.start()
		_, err = s.db.Exec("SELECT * FROM " + v.Name)
		s.rec.end("htap.view_query", parent, t)
	}
	return visStart, visEnd, err
}

// gate checks that every view equals its defining query recomputed from
// scratch, comparing typed values. For htap the recompute runs on the
// OLTP system through Pipeline.RecomputeRemote after a final Sync.
func (s *system) gate() error {
	sess := s.db.NewSession()
	defer sess.Close()
	if s.pipe != nil {
		if err := s.pipe.Sync(); err != nil {
			return fmt.Errorf("final sync: %w", err)
		}
	}
	for _, v := range s.views {
		got, err := sess.Exec("SELECT * FROM " + v.Name)
		if err != nil {
			return fmt.Errorf("read %s: %w", v.Name, err)
		}
		var want []sqltypes.Row
		if s.pipe != nil {
			if want, err = s.remote(v.Query); err != nil {
				return fmt.Errorf("recompute %s: %w", v.Name, err)
			}
		} else {
			res, err := sess.Exec(v.Query)
			if err != nil {
				return fmt.Errorf("recompute %s: %w", v.Name, err)
			}
			want = res.Rows
		}
		if n := rowDiff(got.Rows, want); n != 0 {
			return fmt.Errorf("view %s has %d rows, its recompute %d, and %d are in only one of them",
				v.Name, len(got.Rows), len(want), n)
		}
	}
	return nil
}

// remote runs q on the OLTP system through Pipeline.RecomputeRemote.
func (s *system) remote(q string) ([]sqltypes.Row, error) {
	resp, err := s.pipe.RecomputeRemote(q)
	if err != nil {
		return nil, err
	}
	rows := make([]sqltypes.Row, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = r
	}
	return rows, nil
}

// rowDiff is the size of the symmetric difference of two multisets of
// rows, comparing typed values (an INTEGER 3 equals a FLOAT 3.0). It
// sorts both.
func rowDiff(a, b []sqltypes.Row) int {
	sortRows(a)
	sortRows(b)
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := sqltypes.CompareRows(a[i], b[j]); {
		case c < 0:
			i++
			n++
		case c > 0:
			j++
			n++
		default:
			i++
			j++
		}
	}
	return n + len(a) - i + len(b) - j
}

func sortRows(rs []sqltypes.Row) {
	sort.Slice(rs, func(i, j int) bool { return sqltypes.CompareRows(rs[i], rs[j]) < 0 })
}

// close stops the server and releases every engine and file.
func (s *system) close() {
	for _, c := range []*wire.Client{s.writer, s.reader} {
		if c != nil {
			c.Close()
		}
	}
	if s.pipe != nil {
		s.pipe.OLTP.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.store != nil {
		s.store.DB.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
