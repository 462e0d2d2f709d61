package tabular

import (
	"strings"
	"testing"
)

// testSchema mirrors the paper's running Celebrity example (Table 1).
func testSchema() Schema {
	return Schema{
		Key: "Picture",
		Columns: []Column{
			{Name: "Name", Type: Categorical, Labels: []string{"Gwyneth Paltrow", "Jet Li", "James Purefoy", "Ciaran Hinds"}},
			{Name: "Nationality", Type: Categorical, Labels: []string{"United States", "China", "Great Britain", "Canada"}},
			{Name: "Age", Type: Continuous, Min: 0, Max: 120},
			{Name: "Height", Type: Continuous, Min: 120, Max: 220},
		},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{},
		{Key: "k"},
		{Key: "k", Columns: []Column{{Name: "", Type: Continuous}}},
		{Key: "k", Columns: []Column{{Name: "a", Type: Categorical, Labels: []string{"x"}}}},
		{Key: "k", Columns: []Column{{Name: "a", Type: Categorical, Labels: []string{"x", "x"}}}},
		{Key: "k", Columns: []Column{{Name: "a", Type: Continuous, Min: 5, Max: 1}}},
		{Key: "k", Columns: []Column{{Name: "a", Type: Continuous}, {Name: "a", Type: Continuous}}},
		{Key: "k", Columns: []Column{{Name: "a", Type: ColumnType(9)}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema()
	if s.NumColumns() != 4 {
		t.Fatal("NumColumns")
	}
	if s.ColumnIndex("Age") != 2 || s.ColumnIndex("zzz") != -1 {
		t.Fatal("ColumnIndex")
	}
	if s.Columns[0].NumLabels() != 4 || s.Columns[2].NumLabels() != 0 {
		t.Fatal("NumLabels")
	}
}

func TestColumnTypeString(t *testing.T) {
	if Categorical.String() != "categorical" || Continuous.String() != "continuous" {
		t.Fatal("stringer")
	}
	if !strings.Contains(ColumnType(7).String(), "7") {
		t.Fatal("unknown stringer")
	}
}

func TestValueSemantics(t *testing.T) {
	if !LabelValue(2).Equal(LabelValue(2)) || LabelValue(2).Equal(LabelValue(3)) {
		t.Fatal("label equality")
	}
	if !NumberValue(1.5).Equal(NumberValue(1.5)) || NumberValue(1.5).Equal(NumberValue(2)) {
		t.Fatal("number equality")
	}
	if LabelValue(1).Equal(NumberValue(1)) {
		t.Fatal("cross-kind equality")
	}
	var zero Value
	if !zero.IsNone() || !zero.Equal(Value{}) {
		t.Fatal("zero value should be None")
	}
	if zero.String() != "none" || LabelValue(3).String() != "label(3)" || NumberValue(2.5).String() != "2.5" {
		t.Fatal("stringer")
	}
}

func TestValueCheckAgainst(t *testing.T) {
	s := testSchema()
	cat, cont := s.Columns[0], s.Columns[2]
	if err := LabelValue(1).CheckAgainst(cat); err != nil {
		t.Fatal(err)
	}
	if err := LabelValue(99).CheckAgainst(cat); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if err := NumberValue(3).CheckAgainst(cat); err == nil {
		t.Fatal("number accepted for categorical")
	}
	if err := NumberValue(44).CheckAgainst(cont); err != nil {
		t.Fatal(err)
	}
	if err := LabelValue(0).CheckAgainst(cont); err == nil {
		t.Fatal("label accepted for continuous")
	}
}

func TestTable(t *testing.T) {
	tbl := NewTable(testSchema(), 3)
	if tbl.NumRows() != 3 || tbl.NumCols() != 4 || tbl.NumCells() != 12 {
		t.Fatal("dimensions")
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := tbl.Cells()
	if len(cells) != 12 || cells[0] != (Cell{0, 0}) || cells[11] != (Cell{2, 3}) {
		t.Fatal("Cells enumeration")
	}
	if tbl.HasTruth() {
		t.Fatal("no truth expected")
	}

	tbl.Truth = [][]Value{
		{LabelValue(0), LabelValue(0), NumberValue(40), NumberValue(175)},
		{LabelValue(1), LabelValue(1), NumberValue(45), NumberValue(168)},
		{LabelValue(2), LabelValue(2), NumberValue(48), NumberValue(185)},
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.TruthAt(Cell{1, 2}); !got.Equal(NumberValue(45)) {
		t.Fatalf("TruthAt=%v", got)
	}

	// Corrupt truth: wrong arity and wrong kind.
	tbl.Truth[2] = tbl.Truth[2][:2]
	if err := tbl.Validate(); err == nil {
		t.Fatal("short truth row accepted")
	}
	tbl.Truth[2] = []Value{NumberValue(1), LabelValue(0), NumberValue(1), NumberValue(1)}
	if err := tbl.Validate(); err == nil {
		t.Fatal("mistyped truth accepted")
	}
	tbl.Truth = [][]Value{}
	if err := tbl.Validate(); err == nil {
		t.Fatal("truth/entity mismatch accepted")
	}
}

func TestCellString(t *testing.T) {
	if (Cell{1, 2}).String() != "c[1,2]" {
		t.Fatal("cell stringer")
	}
}
