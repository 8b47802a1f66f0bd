package plan

import "fmt"

// Hint is a semantics-preserving pass-through node carrying executor
// tuning knobs resolved at plan time — the batch size selected by PRAGMA
// batch_size and the scan parallelism selected by PRAGMA workers. The
// engine wraps the optimized plan root with it; the executor unwraps it
// and applies the knobs to the whole subtree.
type Hint struct {
	Input Node
	// BatchSize is the target rows-per-batch for the subtree (0 = executor
	// default).
	BatchSize int
	// Workers is the parallel-scan worker count for the subtree (0 =
	// executor default, one worker per CPU; 1 = serial).
	Workers int
}

// Schema implements Node.
func (h *Hint) Schema() []ColumnInfo { return h.Input.Schema() }

// Children implements Node.
func (h *Hint) Children() []Node { return []Node{h.Input} }

// Describe implements Node.
func (h *Hint) Describe() string {
	d := "Hint"
	if h.BatchSize > 0 {
		d += fmt.Sprintf(" batch_size=%d", h.BatchSize)
	}
	if h.Workers > 0 {
		d += fmt.Sprintf(" workers=%d", h.Workers)
	}
	return d
}

// BuildOnLeft reports whether a hash join over j should build its hash
// table on the left input and probe with the right one, instead of the
// default right-side build. Building on the smaller input wins twice: the
// table is cheaper to construct (fewer inserts, fewer key-string
// allocations) and it stays resident while the larger side streams through
// probe-only lookups. The common IVM shape — a tiny delta table joined
// against a large base table — is exactly the case where the default
// right-side build is maximally wrong.
func BuildOnLeft(j *Join) bool {
	return EstimateRows(j.Left) < EstimateRows(j.Right)
}

// EstimateRows returns a coarse output-cardinality estimate for the node —
// exact for scans and values, heuristic elsewhere. The executor uses it to
// pre-size hash tables and output buffers; it must be cheap, not precise.
func EstimateRows(n Node) int {
	switch x := n.(type) {
	case *Scan:
		return x.Table.RowCount()
	case *Values:
		return x.NumRows()
	case *Filter:
		// Selectivity guess: keep a third.
		return EstimateRows(x.Input)/3 + 1
	case *Project:
		return EstimateRows(x.Input)
	case *Hint:
		return EstimateRows(x.Input)
	case *Sort:
		return EstimateRows(x.Input)
	case *Distinct:
		return EstimateRows(x.Input)
	case *Aggregate:
		// Output is one row per group, bounded by the input.
		return EstimateRows(x.Input)
	case *Limit:
		est := EstimateRows(x.Input)
		if x.Limit >= 0 && int(x.Limit) < est {
			est = int(x.Limit)
		}
		return est
	case *Join:
		l, r := EstimateRows(x.Left), EstimateRows(x.Right)
		if len(x.EquiLeft) > 0 {
			// Equi join: assume roughly foreign-key shape.
			if l > r {
				return l
			}
			return r
		}
		// Cross/theta join, with overflow guarding.
		if l > 0 && r > (1<<30)/l {
			return 1 << 30
		}
		return l * r
	case *SetOp:
		return EstimateRows(x.Left) + EstimateRows(x.Right)
	}
	return 0
}
