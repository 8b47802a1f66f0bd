package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"openivm/internal/sqltypes"
)

// sizes are the base-table sizes of one workload.
type sizes struct {
	Groups, NumGroups  int // groups rows and distinct group_index values
	Customers, Regions int
	Orders             int
	WithGroups         bool // the workload has the groups table and view
}

type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

var opNames = [...]string{"insert", "update", "delete"}

// writeOp is one point write by key, carried both as literal SQL text and
// as prepared-statement parameters.
type writeOp struct {
	Kind   opKind
	Table  string // "groups" or "orders"
	SQL    string
	Params []sqltypes.Value
}

// prepName names the prepared statement that executes op with Params.
func (op writeOp) prepName() string { return op.Table + "_" + opNames[op.Kind] }

// preparedWrites are the parameterized forms of the write statements.
var preparedWrites = map[string]string{
	"groups_insert": "INSERT INTO groups VALUES ($1, $2, $3)",
	"groups_update": "UPDATE groups SET group_value = $2 WHERE id = $1",
	"groups_delete": "DELETE FROM groups WHERE id = $1",
	"orders_insert": "INSERT INTO orders VALUES ($1, $2, $3)",
	"orders_update": "UPDATE orders SET amount = $2 WHERE oid = $1",
	"orders_delete": "DELETE FROM orders WHERE oid = $1",
}

// inputs is everything a run sends to the system, generated from the seed
// before any timed phase.
type inputs struct {
	Load   []string  // multi-row INSERT statements filling the base tables
	Writes []writeOp // the write stream, consumed in order
}

const (
	loadBatch = 1000    // rows per load INSERT
	firstNew  = 1 << 30 // keys of rows the write stream inserts start here
	liveNew   = 64      // inserted rows alive at once per table
)

// generate builds the inputs of a workload of the given sizes in time
// linear in their size. The same seed yields byte-identical inputs.
func generate(sz sizes, seed int64, nWrites int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	groupKey := func() string { return fmt.Sprintf("g%04d", rng.Intn(sz.NumGroups)) }
	if sz.WithGroups {
		in.Load = appendLoad(in.Load, "groups", sz.Groups, func(b *strings.Builder, i int) {
			fmt.Fprintf(b, "(%d, '%s', %d)", i, groupKey(), rng.Intn(1000))
		})
	}
	in.Load = appendLoad(in.Load, "customers", sz.Customers, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, 'r%03d')", i, rng.Intn(sz.Regions))
	})
	in.Load = appendLoad(in.Load, "orders", sz.Orders, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, %d, %d)", i, rng.Intn(sz.Customers), rng.Intn(500))
	})

	tables := []string{"orders"}
	if sz.WithGroups {
		tables = []string{"groups", "orders"}
	}
	type tableState struct {
		base, steps, inserted, deleted int
	}
	state := map[string]*tableState{
		"groups": {base: sz.Groups},
		"orders": {base: sz.Orders},
	}
	in.Writes = make([]writeOp, 0, nWrites)
	for i := 0; i < nWrites; i++ {
		table := tables[i%len(tables)]
		st := state[table]
		kind := opKind(st.steps % 3)
		st.steps++
		if kind == opDelete && st.inserted-st.deleted <= liveNew {
			kind = opUpdate // keep liveNew inserted rows alive before deleting
		}
		var key int64
		switch kind {
		case opInsert:
			key = int64(firstNew + st.inserted)
			st.inserted++
		case opUpdate:
			key = int64(rng.Intn(st.base))
		case opDelete:
			key = int64(firstNew + st.deleted)
			st.deleted++
		}
		in.Writes = append(in.Writes, makeWrite(table, kind, key, rng, sz, groupKey))
	}
	return in
}

func appendLoad(dst []string, table string, n int, row func(b *strings.Builder, i int)) []string {
	for lo := 0; lo < n; lo += loadBatch {
		var b strings.Builder
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < lo+loadBatch && i < n; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			row(&b, i)
		}
		dst = append(dst, b.String())
	}
	return dst
}

func makeWrite(table string, kind opKind, key int64, rng *rand.Rand, sz sizes, groupKey func() string) writeOp {
	k := strconv.FormatInt(key, 10)
	op := writeOp{Kind: kind, Table: table}
	keyCol, valCol := "oid", "amount"
	if table == "groups" {
		keyCol, valCol = "id", "group_value"
	}
	switch kind {
	case opInsert:
		var a sqltypes.Value
		var aSQL string
		if table == "groups" {
			g := groupKey()
			a, aSQL = sqltypes.NewString(g), "'"+g+"'"
		} else {
			c := rng.Intn(sz.Customers)
			a, aSQL = sqltypes.NewInt(int64(c)), strconv.Itoa(c)
		}
		v := rng.Intn(500)
		op.SQL = fmt.Sprintf("INSERT INTO %s VALUES (%s, %s, %d)", table, k, aSQL, v)
		op.Params = []sqltypes.Value{sqltypes.NewInt(key), a, sqltypes.NewInt(int64(v))}
	case opUpdate:
		v := rng.Intn(500)
		op.SQL = fmt.Sprintf("UPDATE %s SET %s = %d WHERE %s = %s", table, valCol, v, keyCol, k)
		op.Params = []sqltypes.Value{sqltypes.NewInt(key), sqltypes.NewInt(int64(v))}
	case opDelete:
		op.SQL = fmt.Sprintf("DELETE FROM %s WHERE %s = %s", table, keyCol, k)
		op.Params = []sqltypes.Value{sqltypes.NewInt(key)}
	}
	return op
}
