// Package htap implements the paper's cross-system IVM pipeline (Figure
// 3): a PostgreSQL-style OLTP system receives the transactional workload
// and captures deltas by trigger; a DuckDB-style OLAP system hosts the
// materialized views; this orchestrator bridges the two over the wire
// protocol — mirroring base tables, replaying captured deltas, and
// driving the locally-compiled propagation scripts.
package htap

import (
	"fmt"
	"strings"

	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/ivmext"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// Pipeline connects one OLTP server (via wire) to one local OLAP engine.
type Pipeline struct {
	OLTP *wire.Client
	OLAP *engine.DB
	Ext  *ivmext.Extension

	// mirrored tracks base tables mirrored into the OLAP engine.
	mirrored map[string]bool

	// Stats for the demo/benchmarks.
	Stats struct {
		Syncs        int
		DeltasPulled int
		RowsMirrored int
	}
}

// New builds a pipeline over an established client connection. The OLAP
// engine is created fresh with the IVM extension installed.
func New(client *wire.Client) *Pipeline {
	db := engine.Open("olap", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	return &Pipeline{OLTP: client, OLAP: db, Ext: ext, mirrored: map[string]bool{}}
}

// Mirror replicates a remote base table into the OLAP engine: schema plus
// a full initial copy (the postgres_scanner-style scan), and asks the
// remote side to enable delta capture for it.
func (p *Pipeline) Mirror(table string) error {
	if p.mirrored[strings.ToLower(table)] {
		return nil
	}
	schema, err := p.OLTP.Schema(table)
	if err != nil {
		return err
	}
	var cols []string
	for _, c := range schema {
		col := c.Name + " " + c.Type
		if c.NotNull {
			col += " NOT NULL"
		}
		cols = append(cols, col)
	}
	if _, err := p.OLAP.Exec(fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (%s)", table, strings.Join(cols, ", "))); err != nil {
		return err
	}

	// Initial scan.
	resp, err := p.OLTP.Exec("SELECT * FROM " + table)
	if err != nil {
		return err
	}
	tbl, err := p.OLAP.Catalog().Table(table)
	if err != nil {
		return err
	}
	if err := p.OLAP.WithoutTriggers(func() error {
		for _, r := range resp.Rows {
			if err := tbl.Insert(sqltypes.Row(r)); err != nil {
				return err
			}
			p.Stats.RowsMirrored++
		}
		return nil
	}); err != nil {
		return err
	}

	// Remote delta capture: delta table + trigger, exactly the manual
	// PostgreSQL configuration the paper describes.
	deltaCols := append(append([]string{}, cols...), ivm.MultiplicityColumn+" BOOLEAN")
	if _, err := p.OLTP.Exec(fmt.Sprintf("CREATE TABLE IF NOT EXISTS delta_%s (%s)", table, strings.Join(deltaCols, ", "))); err != nil {
		return err
	}
	if _, err := p.OLTP.Exec(fmt.Sprintf(
		"CREATE TRIGGER ivm_capture_%s AFTER INSERT OR DELETE OR UPDATE ON %s FOR EACH ROW EXECUTE 'ivm_capture'",
		table, table)); err != nil {
		return err
	}
	p.mirrored[strings.ToLower(table)] = true
	return nil
}

// CreateMaterializedView mirrors every base table the view needs and then
// creates the view locally through the IVM extension (which compiles the
// propagation scripts and registers local delta capture on the mirrors).
func (p *Pipeline) CreateMaterializedView(sql string) error {
	stmt, err := p.OLAP.Parse(sql)
	if err != nil {
		return err
	}
	for _, tbl := range baseTablesOf(stmt) {
		if err := p.Mirror(tbl); err != nil {
			return err
		}
	}
	_, err = p.OLAP.ExecStmt(stmt)
	return err
}

// Sync pulls buffered deltas for every mirrored table from the OLTP side
// and replays them against the local mirrors. Replay fires the local
// capture triggers, so the compiled propagation scripts then maintain the
// views; with PRAGMA ivm_mode='lazy' the actual fold happens on the next
// view query, with 'eager' it happens during replay.
//
// The pulls and the deletes run in one OLTP transaction, so each DELETE
// removes exactly the rows its table's pull returned: a delta captured
// meanwhile commits after the transaction's snapshot, stays invisible to
// it, and is left for the next Sync. BEGIN rides on the first pull and
// the deletes and COMMIT share one final round trip.
func (p *Pipeline) Sync() error {
	p.Stats.Syncs++
	if len(p.mirrored) == 0 {
		return nil
	}
	begin := "BEGIN; "
	var settle strings.Builder
	for table := range p.mirrored {
		resp, err := p.OLTP.Exec(begin + "SELECT * FROM delta_" + table)
		begin = ""
		if err != nil {
			return p.rollback(err)
		}
		for _, r := range resp.Rows {
			row := sqltypes.Row(r)
			mult := row[len(row)-1].IsTrue()
			if err := p.OLAP.ApplyDeltaRow(table, row[:len(row)-1], mult); err != nil {
				return p.rollback(fmt.Errorf("htap: replaying delta for %s: %w", table, err))
			}
			p.Stats.DeltasPulled++
		}
		if len(resp.Rows) > 0 {
			settle.WriteString("DELETE FROM delta_" + table + "; ")
		}
	}
	settle.WriteString("COMMIT")
	if _, err := p.OLTP.Exec(settle.String()); err != nil {
		return p.rollback(err)
	}
	return nil
}

// rollback ends a failed Sync's OLTP transaction, leaving every delta in
// place, and returns err (a ROLLBACK error would only hide it).
func (p *Pipeline) rollback(err error) error {
	_, _ = p.OLTP.Exec("ROLLBACK")
	return err
}

// Query synchronizes pending deltas and then runs an analytical query on
// the OLAP engine (the materialized views refresh lazily underneath).
func (p *Pipeline) Query(sql string) (*engine.Result, error) {
	if err := p.Sync(); err != nil {
		return nil, err
	}
	return p.OLAP.Exec(sql)
}

// RecomputeRemote runs the analytical query directly against the OLTP
// system — the "pure PostgreSQL" configuration of the demo's comparison.
func (p *Pipeline) RecomputeRemote(sql string) (*wire.Response, error) {
	return p.OLTP.Exec(sql)
}

// baseTablesOf extracts the base-table names from a CREATE MATERIALIZED
// VIEW statement's FROM clause.
func baseTablesOf(stmt sqlparser.Statement) []string {
	cv, ok := stmt.(*sqlparser.CreateViewStmt)
	if !ok || cv.Select == nil || cv.Select.From == nil {
		return nil
	}
	var out []string
	var walk func(tr sqlparser.TableRef)
	walk = func(tr sqlparser.TableRef) {
		switch t := tr.(type) {
		case *sqlparser.NamedTable:
			out = append(out, t.Name)
		case *sqlparser.JoinTable:
			walk(t.Left)
			walk(t.Right)
		}
	}
	walk(cv.Select.From)
	return out
}
