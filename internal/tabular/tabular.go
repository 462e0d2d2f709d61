// Package tabular defines the data model of T-Crowd (Sec. 3 of the paper):
// a two-dimensional table C = {c_ij} with an entity (key) attribute, whose
// columns are either categorical or continuous; tasks are cells, and workers
// submit answers to cells.
package tabular

import (
	"errors"
	"fmt"
)

// ColumnType distinguishes the two datatypes the paper unifies.
type ColumnType int

const (
	// Categorical columns draw values from a finite unordered label set.
	Categorical ColumnType = iota
	// Continuous columns hold real-valued answers.
	Continuous
)

// String implements fmt.Stringer.
func (t ColumnType) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column describes one attribute of the table.
type Column struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// Type is the attribute datatype.
	Type ColumnType
	// Labels is the answer domain of a categorical column (|L_j| >= 2).
	// Unused for continuous columns.
	Labels []string
	// Min and Max bound the domain of a continuous column. They are
	// advisory (used by generators and input validation), not enforced on
	// ingest. Unused for categorical columns.
	Min, Max float64
}

// NumLabels returns |L_j| for categorical columns and 0 otherwise.
func (c Column) NumLabels() int {
	if c.Type != Categorical {
		return 0
	}
	return len(c.Labels)
}

// Validate reports whether the column definition is internally consistent.
func (c Column) Validate() error {
	if c.Name == "" {
		return errors.New("tabular: column with empty name")
	}
	switch c.Type {
	case Categorical:
		if len(c.Labels) < 2 {
			return fmt.Errorf("tabular: categorical column %q needs >= 2 labels, has %d", c.Name, len(c.Labels))
		}
		seen := make(map[string]bool, len(c.Labels))
		for _, l := range c.Labels {
			if seen[l] {
				return fmt.Errorf("tabular: column %q has duplicate label %q", c.Name, l)
			}
			seen[l] = true
		}
	case Continuous:
		if c.Max < c.Min {
			return fmt.Errorf("tabular: column %q has inverted domain [%v, %v]", c.Name, c.Min, c.Max)
		}
	default:
		return fmt.Errorf("tabular: column %q has unknown type %d", c.Name, int(c.Type))
	}
	return nil
}

// Schema is the structure a requester registers before publishing tasks
// (step 1 in Fig. 1 of the paper).
type Schema struct {
	// Key names the entity attribute (e.g. "Picture"). It is metadata: key
	// values identify rows and are not crowdsourced.
	Key string
	// Columns are the crowdsourced attributes, in order.
	Columns []Column
}

// Validate checks the schema.
func (s Schema) Validate() error {
	if s.Key == "" {
		return errors.New("tabular: schema needs a key attribute")
	}
	if len(s.Columns) == 0 {
		return errors.New("tabular: schema needs at least one column")
	}
	seen := make(map[string]bool, len(s.Columns)+1)
	seen[s.Key] = true
	for _, c := range s.Columns {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("tabular: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// NumColumns returns M.
func (s Schema) NumColumns() int { return len(s.Columns) }

// ColumnIndex returns the index of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for j, c := range s.Columns {
		if c.Name == name {
			return j
		}
	}
	return -1
}

// Cell addresses one task c_ij: the value of entity (row) i on attribute
// (column) j.
type Cell struct {
	Row int
	Col int
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("c[%d,%d]", c.Row, c.Col) }

// ValueKind tags the variant held by a Value.
type ValueKind int

const (
	// None marks an absent value (cell not yet answered / no truth).
	None ValueKind = iota
	// Label marks a categorical value (index into Column.Labels).
	Label
	// Number marks a continuous value.
	Number
)

// Value is a tagged union holding either a categorical label index or a
// continuous number. The zero Value is None.
type Value struct {
	Kind ValueKind
	// L is the label index for Kind == Label.
	L int
	// X is the number for Kind == Number.
	X float64
}

// LabelValue returns a categorical Value.
func LabelValue(idx int) Value { return Value{Kind: Label, L: idx} }

// NumberValue returns a continuous Value.
func NumberValue(x float64) Value { return Value{Kind: Number, X: x} }

// IsNone reports whether the value is absent.
func (v Value) IsNone() bool { return v.Kind == None }

// Equal reports exact equality of kind and payload.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case Label:
		return v.L == o.L
	case Number:
		return v.X == o.X
	default:
		return true
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case Label:
		return fmt.Sprintf("label(%d)", v.L)
	case Number:
		return fmt.Sprintf("%g", v.X)
	default:
		return "none"
	}
}

// CheckAgainst validates a value against a column definition: labels must be
// in range, numbers must be used for continuous columns.
func (v Value) CheckAgainst(c Column) error {
	switch c.Type {
	case Categorical:
		if v.Kind != Label {
			return fmt.Errorf("tabular: column %q expects a label, got %s", c.Name, v)
		}
		if v.L < 0 || v.L >= len(c.Labels) {
			return fmt.Errorf("tabular: label %d out of range for column %q (|L|=%d)", v.L, c.Name, len(c.Labels))
		}
	case Continuous:
		if v.Kind != Number {
			return fmt.Errorf("tabular: column %q expects a number, got %s", c.Name, v)
		}
	}
	return nil
}

// Table couples a schema with its row count and (optionally) the ground
// truth used by simulations and evaluation. Truth is nil in production use,
// where the whole point is that T* is unknown.
type Table struct {
	Schema Schema
	// Entities holds the key value of each row (e.g. picture ids).
	Entities []string
	// Truth, when present, holds T*_ij (row-major: Truth[i][j]).
	Truth [][]Value
}

// NewTable builds a table with n auto-named entities and no truth.
func NewTable(s Schema, n int) *Table {
	ents := make([]string, n)
	for i := range ents {
		ents[i] = fmt.Sprintf("%s-%d", s.Key, i+1)
	}
	return &Table{Schema: s, Entities: ents}
}

// NumRows returns N.
func (t *Table) NumRows() int { return len(t.Entities) }

// NumCols returns M.
func (t *Table) NumCols() int { return t.Schema.NumColumns() }

// NumCells returns N*M, the number of tasks.
func (t *Table) NumCells() int { return t.NumRows() * t.NumCols() }

// Cells returns every cell address in row-major order.
func (t *Table) Cells() []Cell {
	out := make([]Cell, 0, t.NumCells())
	for i := 0; i < t.NumRows(); i++ {
		for j := 0; j < t.NumCols(); j++ {
			out = append(out, Cell{Row: i, Col: j})
		}
	}
	return out
}

// HasTruth reports whether ground truth is attached.
func (t *Table) HasTruth() bool { return t.Truth != nil }

// TruthAt returns T*_ij; it panics when truth is absent, mirroring how
// evaluation code must never run without ground truth.
func (t *Table) TruthAt(c Cell) Value { return t.Truth[c.Row][c.Col] }

// Validate checks schema, entity count and, when present, every truth value
// against its column.
func (t *Table) Validate() error {
	if err := t.Schema.Validate(); err != nil {
		return err
	}
	if len(t.Entities) == 0 {
		return errors.New("tabular: table has no rows")
	}
	if t.Truth == nil {
		return nil
	}
	if len(t.Truth) != len(t.Entities) {
		return fmt.Errorf("tabular: truth has %d rows, table has %d", len(t.Truth), len(t.Entities))
	}
	for i, row := range t.Truth {
		if len(row) != t.NumCols() {
			return fmt.Errorf("tabular: truth row %d has %d cols, want %d", i, len(row), t.NumCols())
		}
		for j, v := range row {
			if v.IsNone() {
				continue
			}
			if err := v.CheckAgainst(t.Schema.Columns[j]); err != nil {
				return fmt.Errorf("tabular: truth[%d][%d]: %w", i, j, err)
			}
		}
	}
	return nil
}
