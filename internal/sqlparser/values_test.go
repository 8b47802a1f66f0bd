package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/sqltypes"
)

// groupsInsert is a 1000-row INSERT shaped like the groups table's load
// statements: (int, string, int) rows.
func groupsInsert() string {
	var b strings.Builder
	b.WriteString("INSERT INTO groups VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'g%04d', %d)", i, i%50, i%1000)
	}
	return b.String()
}

func valuesOf(t *testing.T, sql string) *ValuesList {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	switch x := st.(type) {
	case *InsertStmt:
		return x.Select.Values
	case *SelectStmt:
		return x.Values
	}
	t.Fatalf("Parse(%q) = %T", sql, st)
	return nil
}

func TestValuesLiteralLane(t *testing.T) {
	vl := valuesOf(t, "VALUES (1, 2.5, 1e3, 'it''s', ''), (NULL, TRUE, FALSE, 'x', 99999999999999999999)")
	if vl.Exprs != nil || len(vl.Literal) != 2 {
		t.Fatalf("want two literal rows, got %#v", vl)
	}
	want := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewFloat(2.5), sqltypes.NewFloat(1000), sqltypes.NewString("it's"), sqltypes.NewString("")},
		{sqltypes.Null, sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewString("x"), sqltypes.NewFloat(1e20)},
	}
	for i, row := range vl.Literal {
		if len(row) != len(want[i]) || cap(row) != len(row) {
			t.Fatalf("row %d = %v (cap %d)", i, row, cap(row))
		}
		for j := range row {
			if row[j] != want[i][j] {
				t.Errorf("row %d col %d = %#v, want %#v", i, j, row[j], want[i][j])
			}
		}
	}
}

// TestValuesFallback: any item that is not a bare literal, or a row of a
// different width, puts the whole list, earlier rows included, in the
// expression form.
func TestValuesFallback(t *testing.T) {
	for _, sql := range []string{
		"VALUES (1, 'a'), (2, 'b'), (1 + 2, 'c')",
		"VALUES (1, 'a'), (2, $1), (3, 'c')",
		"VALUES (1, 'a'), (-2, 'b'), (3, 'c')",
		"VALUES (1, 'a'), (2, 'b' || 'x'), (3, 'c')",
		"VALUES (1, 'a'), (2, CAST(3 AS TEXT)), (3, 'c')",
		"VALUES (1, 'a'), (2, 'b'), (3, 'c', 4)",
		"VALUES (1, 'a'), (2), (3, 'c')",
	} {
		vl := valuesOf(t, sql)
		if vl.Literal != nil || len(vl.Exprs) != 3 {
			t.Fatalf("%s: want three expression rows, got %#v", sql, vl)
		}
		first := vl.Exprs[0]
		if lit, ok := first[0].(*Literal); !ok || lit.Value != sqltypes.NewInt(1) {
			t.Errorf("%s: first item = %#v", sql, first[0])
		}
		if lit, ok := first[1].(*Literal); !ok || lit.Value != sqltypes.NewString("a") {
			t.Errorf("%s: second item = %#v", sql, first[1])
		}
	}
}

// TestLexErrorWins: a lexer error is reported as before, when the whole
// input was tokenized up front, even where the parser fails first.
func TestLexErrorWins(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT 'abc":                "unterminated string literal at 7",
		"SELECT 1 'abc":              "unterminated string literal at 9",
		"SELECT FROM WHERE 'abc":     "unterminated string literal at 18",
		"INSERT INTO t VALUES (1) ^": "unexpected character \"^\" at 25",
		"SELECT \"abc":               "unterminated quoted identifier at 7",
	} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want %q", sql, err, want)
		}
		if _, err := ParseScript(sql + ";"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseScript(%q) = %v, want %q", sql, err, want)
		}
	}
}

// TestParseInsertValuesAllocs guards the lane's allocation count: parsing
// a 1000-row groups-shaped INSERT allocates at most once per string
// literal, plus a small constant.
func TestParseInsertValuesAllocs(t *testing.T) {
	sql := groupsInsert()
	const strLits = 1000
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > strLits+100 {
		t.Fatalf("parsing a 1000-row INSERT took %.0f allocations, want at most %d", allocs, strLits+100)
	}
}

var parsedSink Statement

func BenchmarkParseInsertValues(b *testing.B) {
	sql := groupsInsert()
	b.ReportAllocs()
	b.SetBytes(int64(len(sql)))
	for i := 0; i < b.N; i++ {
		st, err := Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		parsedSink = st
	}
}
