package engine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// bareLiteral matches one bare VALUES item: a number, a string (with ”
// escapes), NULL, TRUE or FALSE.
var bareLiteral = regexp.MustCompile(`'(?:[^']|'')*'|\b(?:NULL|TRUE|FALSE)\b|\b\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\b`)

// oldPath rewrites sql so its VALUES items skip the literal lane: each
// bare literal is written as (literal), an expression to the parser.
func oldPath(sql string) string {
	i := strings.Index(sql, "VALUES")
	return sql[:i] + bareLiteral.ReplaceAllString(sql[i:], "($0)")
}

// laneAndOld runs setup then stmt on two fresh engines, stmt through the
// literal lane on one and through the expression path on the other, and
// checks both end with the same error and the same contents of every
// table named in check.
func laneAndOld(t *testing.T, setup []string, stmt string, check ...string) {
	t.Helper()
	if vl := valuesListOf(t, stmt); vl.Literal == nil {
		t.Fatalf("%q did not take the literal lane", stmt)
	}
	sameOutcome(t, setup, stmt, check...)
}

// sameOutcome is laneAndOld without requiring stmt to take the lane.
func sameOutcome(t *testing.T, setup []string, stmt string, check ...string) {
	t.Helper()
	run := func(sql string) (string, []string) {
		db := Open("lane", DialectDuckDB)
		for _, s := range setup {
			mustExec(t, db, s)
		}
		var errText string
		if _, err := db.Exec(sql); err != nil {
			errText = err.Error()
		}
		var out []string
		for _, q := range check {
			res := mustExec(t, db, q)
			out = append(out, strings.Join(sortedStrings(res.Rows), "\n"))
		}
		return errText, out
	}
	old := oldPath(stmt)
	if old == stmt {
		t.Fatalf("oldPath left %q unchanged", stmt)
	}
	if vl := valuesListOf(t, old); vl.Exprs == nil {
		t.Fatalf("%q took the literal lane", old)
	}
	laneErr, laneRows := run(stmt)
	oldErr, oldRows := run(old)
	if laneErr != oldErr {
		t.Errorf("%s\nlane error %q\nold error  %q", stmt, laneErr, oldErr)
	}
	for i := range laneRows {
		if laneRows[i] != oldRows[i] {
			t.Errorf("%s: %s\nlane:\n%s\nold:\n%s", stmt, check[i], laneRows[i], oldRows[i])
		}
	}
}

func valuesListOf(t *testing.T, sql string) *sqlparser.ValuesList {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	var vl *sqlparser.ValuesList
	var walk func(sel *sqlparser.SelectStmt)
	walk = func(sel *sqlparser.SelectStmt) {
		if sel == nil || vl != nil {
			return
		}
		if sel.Values != nil {
			vl = sel.Values
			return
		}
		for _, c := range sel.CTEs {
			walk(c.Select)
		}
		if sq, ok := sel.From.(*sqlparser.SubqueryTable); ok {
			walk(sq.Select)
		}
	}
	switch x := st.(type) {
	case *sqlparser.InsertStmt:
		walk(x.Select)
	case *sqlparser.SelectStmt:
		walk(x)
	}
	if vl == nil {
		t.Fatalf("%q has no VALUES list", sql)
	}
	return vl
}

func TestValuesLaneMatchesExprPath(t *testing.T) {
	typed := []string{"CREATE TABLE t (i INTEGER, f DOUBLE, s VARCHAR, b BOOLEAN)"}
	all := "SELECT * FROM t"
	t.Run("literals", func(t *testing.T) {
		laneAndOld(t, typed, "INSERT INTO t VALUES (1, 2.5, 'it''s', TRUE), (0, 1e3, '', FALSE), (NULL, 99999999999999999999, 'x', NULL)", all)
		laneAndOld(t, typed, "INSERT INTO t VALUES (9223372036854775807, 0.5, '''', TRUE), (0, 1.5e-3, 'a''''b', FALSE)", all)
	})
	t.Run("coercion", func(t *testing.T) {
		// Every literal kind into every column type, one column at a time.
		for _, col := range []string{"i", "f", "s", "b"} {
			for _, lit := range []string{"7", "2.5", "1e3", "99999999999999999999", "'12'", "'x'", "TRUE", "FALSE", "NULL"} {
				laneAndOld(t, typed, fmt.Sprintf("INSERT INTO t (%s) VALUES (%s), (%s)", col, lit, lit), all)
			}
		}
	})
	t.Run("row 500 holds an expression", func(t *testing.T) {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < 600; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			if i == 500 {
				b.WriteString("(1 + 2, 0.5 * 3, 'a' || 'b', NOT TRUE)")
				continue
			}
			fmt.Fprintf(&b, "(%d, %d.25, 's%d', %v)", i, i, i, i%2 == 0)
		}
		sql := b.String()
		vl := valuesListOf(t, sql)
		if vl.Exprs == nil || len(vl.Exprs) != 600 {
			t.Fatalf("want the expression form with 600 rows, got %d literal rows", len(vl.Literal))
		}
		old := oldPath(sql)
		lane, other := Open("a", DialectDuckDB), Open("b", DialectDuckDB)
		for _, db := range []*DB{lane, other} {
			mustExec(t, db, typed[0])
		}
		mustExec(t, lane, sql)
		mustExec(t, other, old)
		a, o := sortedStrings(queryRows(t, lane, all)), sortedStrings(queryRows(t, other, all))
		if strings.Join(a, "\n") != strings.Join(o, "\n") || len(a) != 600 {
			t.Fatalf("fallback rows differ from the expression path (%d vs %d rows)", len(a), len(o))
		}
	})
	t.Run("widths", func(t *testing.T) {
		// A row whose width differs moves the list to the expression
		// form, so the binder reports it as before.
		sameOutcome(t, typed, "INSERT INTO t VALUES (1, 2.5, 'a', TRUE), (2, 3.5, 'b')", all)
		sameOutcome(t, nil, "VALUES (1, 2), (3)")
		laneAndOld(t, typed, "INSERT INTO t VALUES (1, 2.5), (2, 3.5)", all)
		laneAndOld(t, typed, "INSERT INTO t VALUES (1, 2.5, 'a', TRUE, 5)", all)
	})
	t.Run("not null partial insert", func(t *testing.T) {
		laneAndOld(t, []string{"CREATE TABLE n (a INTEGER NOT NULL, b VARCHAR)"},
			"INSERT INTO n VALUES (1, 'a'), (2, 'b'), (NULL, 'c'), (4, 'd')", "SELECT * FROM n")
	})
	t.Run("column list", func(t *testing.T) {
		laneAndOld(t, []string{"CREATE TABLE c (a INTEGER, b VARCHAR, d DOUBLE DEFAULT 1.5)"},
			"INSERT INTO c (b, a) VALUES ('x', 1), ('y', 2)", "SELECT * FROM c")
	})
	pk := []string{"CREATE TABLE k (id INTEGER PRIMARY KEY, v VARCHAR)", "INSERT INTO k VALUES (1, 'old'), (2, 'old')"}
	t.Run("or replace", func(t *testing.T) {
		laneAndOld(t, pk, "INSERT OR REPLACE INTO k VALUES (2, 'new'), (3, 'new')", "SELECT * FROM k")
	})
	t.Run("on conflict", func(t *testing.T) {
		laneAndOld(t, pk, "INSERT INTO k VALUES (1, 'a'), (3, 'b') ON CONFLICT (id) DO NOTHING", "SELECT * FROM k")
		laneAndOld(t, pk, "INSERT INTO k VALUES (1, 'a'), (4, 'b') ON CONFLICT (id) DO UPDATE SET v = EXCLUDED.v", "SELECT * FROM k")
		laneAndOld(t, pk, "INSERT INTO k VALUES (2, 'dup'), (5, 'b')", "SELECT * FROM k")
	})
	t.Run("outside insert", func(t *testing.T) {
		for _, q := range []string{
			"VALUES (1, 'a', 2.5), (2, 'b', NULL)",
			"SELECT col1, col0 FROM (VALUES (1, 'a'), (2, 'b')) AS v WHERE col0 > 1",
			"WITH v AS (VALUES (1, 'a'), (2, 'b')) SELECT COUNT(*), MAX(col1) FROM v",
			"SELECT * FROM (VALUES (TRUE), (FALSE)) AS v",
		} {
			db := Open("q", DialectDuckDB)
			lane, old := queryRows(t, db, q), queryRows(t, db, oldPath(q))
			if strings.Join(sortedStrings(lane), "\n") != strings.Join(sortedStrings(old), "\n") || len(lane) == 0 {
				t.Errorf("%s: lane %v, old %v", q, lane, old)
			}
		}
	})
}

// TestValuesLaneRowsNotShared runs one literal INSERT text twice into a
// table without a primary key, updates the first copy in between, and
// checks the second copy is untouched — directly and as a prepared
// statement whose plan, constant rows included, is cached across
// executions.
func TestValuesLaneRowsNotShared(t *testing.T) {
	const ins = "INSERT INTO t VALUES (1, 'orig', 2.5)"
	for _, prepared := range []bool{false, true} {
		db := Open("share", DialectDuckDB)
		mustExec(t, db, "CREATE TABLE t (k INTEGER, s VARCHAR, f DOUBLE)")
		run := func() { mustExec(t, db, ins) }
		if prepared {
			stmts, err := db.PrepareScript(ins)
			if err != nil {
				t.Fatal(err)
			}
			run = func() {
				if _, err := db.ExecStmts(stmts); err != nil {
					t.Fatal(err)
				}
			}
		}
		run()
		mustExec(t, db, "UPDATE t SET s = 'changed', f = f + 1")
		run()
		got := sortedStrings(queryRows(t, db, "SELECT k, s, f FROM t"))
		want := []string{"1|changed|3.5", "1|orig|2.5"}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("prepared=%v: rows = %v, want %v", prepared, got, want)
		}
		tbl, err := db.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		rows := tbl.Rows()
		if len(rows) != 2 || &rows[0][0] == &rows[1][0] {
			t.Fatalf("prepared=%v: the two copies share one row slice", prepared)
		}
	}
}

func TestValuesLaneStringsOwnBytes(t *testing.T) {
	db := Open("own", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (s VARCHAR)")
	sql := "INSERT INTO t VALUES ('stored')"
	mustExec(t, db, sql)
	v := queryRows(t, db, "SELECT s FROM t")[0][0]
	if v != sqltypes.NewString("stored") {
		t.Fatalf("got %v", v)
	}
	lo, p := stringAddr(sql), stringAddr(v.S)
	if p >= lo && p < lo+uintptr(len(sql)) {
		t.Fatal("the stored string points into the statement text")
	}
}

func stringAddr(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
