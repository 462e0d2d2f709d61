package tabular

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func logFixture() *AnswerLog {
	l := NewAnswerLog()
	l.Add(Answer{Worker: "u1", Cell: Cell{0, 0}, Value: LabelValue(0)})
	l.Add(Answer{Worker: "u1", Cell: Cell{0, 2}, Value: NumberValue(39)})
	l.Add(Answer{Worker: "u2", Cell: Cell{0, 0}, Value: LabelValue(0)})
	l.Add(Answer{Worker: "u2", Cell: Cell{0, 1}, Value: LabelValue(3)})
	l.Add(Answer{Worker: "u3", Cell: Cell{1, 0}, Value: LabelValue(1)})
	l.Add(Answer{Worker: "u3", Cell: Cell{1, 2}, Value: NumberValue(45)})
	return l
}

func TestAnswerLogIndexing(t *testing.T) {
	l := logFixture()
	if l.Len() != 6 {
		t.Fatal("Len")
	}
	if got := l.ByCell(Cell{0, 0}); len(got) != 2 || got[0].Worker != "u1" || got[1].Worker != "u2" {
		t.Fatalf("ByCell: %+v", got)
	}
	if l.CountByCell(Cell{0, 0}) != 2 || l.CountByCell(Cell{9, 9}) != 0 {
		t.Fatal("CountByCell")
	}
	if got := l.ByWorker("u3"); len(got) != 2 || !got[1].Value.Equal(NumberValue(45)) {
		t.Fatalf("ByWorker: %+v", got)
	}
	if l.CountByWorker("u1") != 2 || l.CountByWorker("nobody") != 0 {
		t.Fatal("CountByWorker")
	}
	if ws := l.Workers(); len(ws) != 3 || ws[0] != "u1" || ws[2] != "u3" {
		t.Fatalf("Workers: %v", ws)
	}
	if l.NumWorkers() != 3 {
		t.Fatal("NumWorkers")
	}
	if !l.HasAnswered("u1", Cell{0, 2}) || l.HasAnswered("u1", Cell{1, 0}) {
		t.Fatal("HasAnswered")
	}
	if a, ok := l.WorkerAnswerIn("u2", Cell{0, 1}); !ok || !a.Value.Equal(LabelValue(3)) {
		t.Fatal("WorkerAnswerIn")
	}
	if _, ok := l.WorkerAnswerIn("u2", Cell{5, 5}); ok {
		t.Fatal("phantom answer")
	}
	if ra := l.RowAnswersByWorker("u1", 0); len(ra) != 2 {
		t.Fatalf("RowAnswersByWorker: %+v", ra)
	}
	if ra := l.RowAnswersByWorker("u1", 1); len(ra) != 0 {
		t.Fatal("row filter leaked")
	}
	if got := l.AvgAnswersPerCell(); got != 6.0/5.0 {
		t.Fatalf("AvgAnswersPerCell=%v", got)
	}
	if (NewAnswerLog()).AvgAnswersPerCell() != 0 {
		t.Fatal("empty avg")
	}
	if l.At(4).Worker != "u3" {
		t.Fatal("At")
	}
	cells := l.CellsAnswered()
	if len(cells) != 5 || cells[0] != (Cell{0, 0}) || cells[4] != (Cell{1, 2}) {
		t.Fatalf("CellsAnswered: %v", cells)
	}
	sorted := l.SortedWorkers()
	if len(sorted) != 3 || sorted[0] != "u1" {
		t.Fatal("SortedWorkers")
	}
}

func TestAnswerLogClone(t *testing.T) {
	l := logFixture()
	c := l.Clone()
	c.Add(Answer{Worker: "u9", Cell: Cell{2, 2}, Value: NumberValue(1)})
	if l.Len() != 6 || c.Len() != 7 {
		t.Fatal("clone not independent")
	}
	if l.NumWorkers() != 3 || c.NumWorkers() != 4 {
		t.Fatal("clone workers not independent")
	}
}

// TestAnswerLogInternsWorkerIDs pins the interning: answers whose worker ID
// arrives as a fresh string (as each decoded request's does) are stored
// sharing the first answer's ID string, and the worker indexes still see
// them all, in a clone too.
func TestAnswerLogInternsWorkerIDs(t *testing.T) {
	l := NewAnswerLog()
	for i := 0; i < 4; i++ {
		id := WorkerID(strings.Clone("worker-7"))
		l.Add(Answer{Worker: id, Cell: Cell{i, 0}, Value: LabelValue(0)})
	}
	first := unsafe.StringData(string(l.At(0).Worker))
	for i := 1; i < l.Len(); i++ {
		if unsafe.StringData(string(l.At(i).Worker)) != first {
			t.Fatalf("answer %d keeps its own worker ID string", i)
		}
	}
	c := l.Clone()
	c.Add(Answer{Worker: "worker-7", Cell: Cell{9, 1}, Value: LabelValue(1)})
	if l.CountByWorker("worker-7") != 4 || c.CountByWorker("worker-7") != 5 {
		t.Fatalf("CountByWorker: log %d, clone %d", l.CountByWorker("worker-7"), c.CountByWorker("worker-7"))
	}
	if !c.HasAnswered("worker-7", Cell{9, 1}) || l.HasAnswered("worker-7", Cell{9, 1}) {
		t.Fatal("clone's worker index not independent")
	}
}

func TestAnswerLogValidate(t *testing.T) {
	tbl := NewTable(testSchema(), 3)
	l := logFixture()
	if err := l.Validate(tbl); err != nil {
		t.Fatal(err)
	}
	bad := NewAnswerLog()
	bad.Add(Answer{Worker: "u1", Cell: Cell{99, 0}, Value: LabelValue(0)})
	if err := bad.Validate(tbl); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	bad2 := NewAnswerLog()
	bad2.Add(Answer{Worker: "", Cell: Cell{0, 0}, Value: LabelValue(0)})
	if err := bad2.Validate(tbl); err == nil {
		t.Fatal("empty worker accepted")
	}
	bad3 := NewAnswerLog()
	bad3.Add(Answer{Worker: "u", Cell: Cell{0, 0}, Value: NumberValue(3)})
	if err := bad3.Validate(tbl); err == nil {
		t.Fatal("mistyped value accepted")
	}
}

func TestJSONSchemaRoundTrip(t *testing.T) {
	s := testSchema()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Schema
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back.Key != s.Key || len(back.Columns) != len(s.Columns) {
		t.Fatal("schema round trip lost structure")
	}
	for i := range s.Columns {
		a, bcol := s.Columns[i], back.Columns[i]
		if a.Name != bcol.Name || a.Type != bcol.Type || len(a.Labels) != len(bcol.Labels) || a.Min != bcol.Min || a.Max != bcol.Max {
			t.Fatalf("column %d mismatch: %+v vs %+v", i, a, bcol)
		}
	}
	var bad Schema
	if err := bad.UnmarshalJSON([]byte(`{"key":"k","columns":[{"name":"a","type":"weird"}]}`)); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestAnswersJSONRoundTrip(t *testing.T) {
	s := testSchema()
	l := logFixture()
	b, err := MarshalAnswers(s, l.All())
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAnswers(bytes.NewReader(b), s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("lost answers: %d vs %d", back.Len(), l.Len())
	}
	for i := 0; i < l.Len(); i++ {
		a, b := l.At(i), back.At(i)
		if a.Worker != b.Worker || a.Cell != b.Cell || !a.Value.Equal(b.Value) {
			t.Fatalf("answer %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestAnswersJSONErrors(t *testing.T) {
	s := testSchema()
	if _, err := DecodeAnswers(strings.NewReader(`[{"worker":"u","row":0,"column":"zzz","label":"x"}]`), s); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := DecodeAnswers(strings.NewReader(`[{"worker":"u","row":0,"column":"Name","label":"NotALabel"}]`), s); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := DecodeAnswers(strings.NewReader(`[{"worker":"u","row":0,"column":"Name"}]`), s); err == nil {
		t.Fatal("valueless answer accepted")
	}
	if _, err := DecodeAnswers(strings.NewReader(`not json`), s); err == nil {
		t.Fatal("garbage accepted")
	}
	// Encoding an empty value must fail.
	l := NewAnswerLog()
	l.Add(Answer{Worker: "u", Cell: Cell{0, 0}})
	if _, err := MarshalAnswers(s, l.All()); err == nil {
		t.Fatal("encoded a None value")
	}
}

func TestAnswersCSVRoundTrip(t *testing.T) {
	s := testSchema()
	l := logFixture()
	var buf bytes.Buffer
	if err := WriteAnswersCSV(&buf, s, l); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "worker,row,column,value\n") {
		t.Fatal("missing header")
	}
	back, err := ReadAnswersCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatal("csv round trip lost answers")
	}
	for i := 0; i < l.Len(); i++ {
		a, b := l.At(i), back.At(i)
		if a.Worker != b.Worker || a.Cell != b.Cell || !a.Value.Equal(b.Value) {
			t.Fatalf("answer %d mismatch", i)
		}
	}
	// Errors.
	if _, err := ReadAnswersCSV(strings.NewReader("worker,row,column,value\nu,zero,Name,Jet Li\n"), s); err == nil {
		t.Fatal("bad row index accepted")
	}
	if _, err := ReadAnswersCSV(strings.NewReader("u,0,Name,Nope\n"), s); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := ReadAnswersCSV(strings.NewReader("u,0,Age,abc\n"), s); err == nil {
		t.Fatal("bad number accepted")
	}
	if got, err := ReadAnswersCSV(strings.NewReader(""), s); err != nil || got.Len() != 0 {
		t.Fatal("empty csv should give empty log")
	}
}

func TestQuickAnswersJSONRoundTrip(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(9))
	f := func(n uint8) bool {
		l := NewAnswerLog()
		for k := 0; k < int(n%40); k++ {
			j := rng.Intn(4)
			var v Value
			if s.Columns[j].Type == Categorical {
				v = LabelValue(rng.Intn(len(s.Columns[j].Labels)))
			} else {
				v = NumberValue(float64(rng.Intn(1000)) / 7)
			}
			l.Add(Answer{
				Worker: WorkerID(string(rune('a' + rng.Intn(5)))),
				Cell:   Cell{Row: rng.Intn(6), Col: j},
				Value:  v,
			})
		}
		b, err := MarshalAnswers(s, l.All())
		if err != nil {
			return false
		}
		back, err := DecodeAnswers(bytes.NewReader(b), s)
		if err != nil || back.Len() != l.Len() {
			return false
		}
		for i := 0; i < l.Len(); i++ {
			a, b := l.At(i), back.At(i)
			if a.Worker != b.Worker || a.Cell != b.Cell || !a.Value.Equal(b.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
