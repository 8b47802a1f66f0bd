package htap

import (
	"sort"
	"strings"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/oltp"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// startPipeline spins up an OLTP store, serves it over TCP, and connects a
// pipeline — the full Figure 3 architecture in-process.
func startPipeline(t *testing.T) (*oltp.Store, *Pipeline) {
	t.Helper()
	store := oltp.New("pg")
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return store, New(cl)
}

func mustRemote(t *testing.T, p *Pipeline, sql string) {
	t.Helper()
	if _, err := p.OLTP.Exec(sql); err != nil {
		t.Fatalf("remote %q: %v", sql, err)
	}
}

// crossCheck compares the OLAP-side materialized view against recomputing
// the query on the OLTP side.
func crossCheck(t *testing.T, p *Pipeline, viewCols, view, remoteQuery string) {
	t.Helper()
	res, err := p.Query("SELECT " + viewCols + " FROM " + view)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := p.RecomputeRemote(remoteQuery)
	if err != nil {
		t.Fatal(err)
	}
	var g, w []string
	for _, r := range res.Rows {
		g = append(g, r.String())
	}
	for _, r := range remote.Rows {
		w = append(w, sqltypes.Row(r).String())
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ";") != strings.Join(w, ";") {
		t.Fatalf("cross-system divergence\n olap: %v\n oltp: %v", g, w)
	}
}

func TestCrossSystemAggregate(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE sales (region TEXT, amount INTEGER)")
	mustRemote(t, p, "INSERT INTO sales VALUES ('eu', 10), ('us', 20), ('eu', 5)")

	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW region_totals AS
		SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region`); err != nil {
		t.Fatal(err)
	}
	remoteQ := "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region"
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	// OLTP-side writes propagate across systems.
	mustRemote(t, p, "INSERT INTO sales VALUES ('ap', 7), ('eu', 3)")
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	mustRemote(t, p, "DELETE FROM sales WHERE region = 'us'")
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	mustRemote(t, p, "UPDATE sales SET amount = amount + 100 WHERE region = 'eu'")
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	if p.Stats.DeltasPulled == 0 || p.Stats.Syncs == 0 {
		t.Errorf("stats not recorded: %+v", p.Stats)
	}
}

func TestCrossSystemJoinView(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE customers (cid INTEGER, region TEXT)")
	mustRemote(t, p, "CREATE TABLE orders (oid INTEGER, cid INTEGER, amount INTEGER)")
	mustRemote(t, p, "INSERT INTO customers VALUES (1, 'eu'), (2, 'us')")
	mustRemote(t, p, "INSERT INTO orders VALUES (100, 1, 10), (101, 2, 20)")

	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW rs AS
		SELECT c.region, SUM(o.amount) AS total, COUNT(*) AS n
		FROM orders AS o JOIN customers AS c ON o.cid = c.cid GROUP BY c.region`); err != nil {
		t.Fatal(err)
	}
	remoteQ := `SELECT c.region, SUM(o.amount), COUNT(*) FROM orders AS o
		JOIN customers AS c ON o.cid = c.cid GROUP BY c.region`
	crossCheck(t, p, "region, total, n", "rs", remoteQ)

	mustRemote(t, p, "INSERT INTO orders VALUES (102, 1, 30)")
	mustRemote(t, p, "INSERT INTO customers VALUES (3, 'ap')")
	mustRemote(t, p, "INSERT INTO orders VALUES (103, 3, 40)")
	crossCheck(t, p, "region, total, n", "rs", remoteQ)

	mustRemote(t, p, "DELETE FROM orders WHERE oid = 100")
	crossCheck(t, p, "region, total, n", "rs", remoteQ)
}

func TestMirrorIdempotent(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	if err := p.Mirror("t"); err != nil {
		t.Fatalf("second mirror should be a no-op: %v", err)
	}
}

func TestSyncWithoutChangesIsCheap(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.DeltasPulled != 0 {
		t.Errorf("no deltas expected, got %d", p.Stats.DeltasPulled)
	}
}

func TestRemoteDeltasClearedAfterSync(t *testing.T) {
	store, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.CreateMaterializedView(
		"CREATE MATERIALIZED VIEW vt AS SELECT a, COUNT(*) AS n FROM t GROUP BY a"); err != nil {
		t.Fatal(err)
	}
	mustRemote(t, p, "INSERT INTO t VALUES (1), (2)")
	if store.PendingDeltas("t") != 2 {
		t.Fatalf("remote deltas = %d", store.PendingDeltas("t"))
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if store.PendingDeltas("t") != 0 {
		t.Error("remote deltas not cleared")
	}
}

func TestInitialDataMirrored(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	mustRemote(t, p, "INSERT INTO t VALUES (1), (2), (3)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	res, err := p.OLAP.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Fatalf("mirrored %v rows", res.Rows)
	}
	if p.Stats.RowsMirrored != 3 {
		t.Errorf("stats.RowsMirrored = %d", p.Stats.RowsMirrored)
	}
}

// TestSyncKeepsDeltasCapturedDuringReplay: a write that reaches the OLTP
// side while Sync replays (here an OLAP-side trigger on the mirror writes
// through a second connection) is captured after Sync's pull. Sync must
// leave that delta for the next Sync rather than delete it unreplayed;
// after the next Sync the mirror equals the OLTP table.
func TestSyncKeepsDeltasCapturedDuringReplay(t *testing.T) {
	store := oltp.New("pg")
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	dial := func() *wire.Client {
		cl, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	p, other := New(dial()), dial()
	if _, err := other.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	echoed := false
	p.OLAP.AddTrigger("t", "echo", []engine.TriggerEvent{engine.TrigInsert}, func(*engine.DB, string, engine.TriggerEvent, []sqltypes.Row, []sqltypes.Row) error {
		if echoed {
			return nil
		}
		echoed = true
		_, err := other.Exec("INSERT INTO t VALUES (2, 20)")
		return err
	})
	if _, err := other.Exec("INSERT INTO t VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Sync(); err != nil {
			t.Fatalf("Sync %d: %v", i+1, err)
		}
	}
	if !echoed {
		t.Fatal("the replay trigger never fired")
	}
	local, err := p.OLAP.Exec("SELECT id, v FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := other.Exec("SELECT id, v FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var g, w []string
	for _, r := range local.Rows {
		g = append(g, r.String())
	}
	for _, r := range remote.Rows {
		w = append(w, sqltypes.Row(r).String())
	}
	if strings.Join(g, ";") != strings.Join(w, ";") || len(w) != 2 {
		t.Fatalf("mirror %v, OLTP table %v", g, w)
	}
	if n := store.PendingDeltas("t"); n != 0 {
		t.Fatalf("%d deltas left after the second Sync", n)
	}
}
