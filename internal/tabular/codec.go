package tabular

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// JSON wire formats. The on-disk representation names labels by string (not
// index) so logs survive schema reordering, and it is the format the
// platform server speaks.

type schemaJSON struct {
	Key     string       `json:"key"`
	Columns []columnJSON `json:"columns"`
}

type columnJSON struct {
	Name   string   `json:"name"`
	Type   string   `json:"type"`
	Labels []string `json:"labels,omitempty"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
}

// MarshalJSON implements json.Marshaler for Schema.
func (s Schema) MarshalJSON() ([]byte, error) {
	out := schemaJSON{Key: s.Key, Columns: make([]columnJSON, len(s.Columns))}
	for i, c := range s.Columns {
		out.Columns[i] = columnJSON{Name: c.Name, Type: c.Type.String(), Labels: c.Labels, Min: c.Min, Max: c.Max}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Schema.
func (s *Schema) UnmarshalJSON(b []byte) error {
	var in schemaJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	cols := make([]Column, len(in.Columns))
	for i, c := range in.Columns {
		var t ColumnType
		switch c.Type {
		case "categorical":
			t = Categorical
		case "continuous":
			t = Continuous
		default:
			return fmt.Errorf("tabular: unknown column type %q", c.Type)
		}
		cols[i] = Column{Name: c.Name, Type: t, Labels: c.Labels, Min: c.Min, Max: c.Max}
	}
	*s = Schema{Key: in.Key, Columns: cols}
	return nil
}

type answerJSON struct {
	Worker string   `json:"worker"`
	Row    int      `json:"row"`
	Column string   `json:"column"`
	Label  *string  `json:"label,omitempty"`
	Number *float64 `json:"number,omitempty"`
}

// answerToJSON converts one answer to the wire element, resolving label
// indices through the schema.
func answerToJSON(s Schema, a Answer) (answerJSON, error) {
	if a.Cell.Col < 0 || a.Cell.Col >= len(s.Columns) {
		return answerJSON{}, fmt.Errorf("tabular: answer column %d out of schema range", a.Cell.Col)
	}
	col := s.Columns[a.Cell.Col]
	aj := answerJSON{Worker: string(a.Worker), Row: a.Cell.Row, Column: col.Name}
	switch a.Value.Kind {
	case Label:
		if a.Value.L < 0 || a.Value.L >= len(col.Labels) {
			return answerJSON{}, fmt.Errorf("tabular: label index %d out of range for %q", a.Value.L, col.Name)
		}
		lbl := col.Labels[a.Value.L]
		aj.Label = &lbl
	case Number:
		x := a.Value.X
		aj.Number = &x
	default:
		return answerJSON{}, fmt.Errorf("tabular: cannot encode empty value for %q", col.Name)
	}
	return aj, nil
}

// answerFromJSON converts one wire element back, resolving label strings
// and column names through the schema; i labels errors.
func answerFromJSON(s Schema, i int, aj answerJSON) (Answer, error) {
	j := s.ColumnIndex(aj.Column)
	if j < 0 {
		return Answer{}, fmt.Errorf("tabular: answer %d references unknown column %q", i, aj.Column)
	}
	col := s.Columns[j]
	var v Value
	switch {
	case aj.Label != nil:
		idx := -1
		for k, lbl := range col.Labels {
			if lbl == *aj.Label {
				idx = k
				break
			}
		}
		if idx < 0 {
			return Answer{}, fmt.Errorf("tabular: answer %d has unknown label %q for column %q", i, *aj.Label, col.Name)
		}
		v = LabelValue(idx)
	case aj.Number != nil:
		v = NumberValue(*aj.Number)
	default:
		return Answer{}, fmt.Errorf("tabular: answer %d carries neither label nor number", i)
	}
	if err := v.CheckAgainst(col); err != nil {
		return Answer{}, fmt.Errorf("tabular: answer %d: %w", i, err)
	}
	return Answer{Worker: WorkerID(aj.Worker), Cell: Cell{Row: aj.Row, Col: j}, Value: v}, nil
}

// MarshalAnswers renders an answer slice as a compact JSON array, the
// format DecodeAnswers and UnmarshalAnswers read. It is the payload
// format of WAL batch records, where bytes cost fsync latency.
func MarshalAnswers(s Schema, as []Answer) ([]byte, error) {
	out := make([]answerJSON, 0, len(as))
	for _, a := range as {
		aj, err := answerToJSON(s, a)
		if err != nil {
			return nil, err
		}
		out = append(out, aj)
	}
	return json.Marshal(out)
}

// UnmarshalAnswers parses an answer array written by MarshalAnswers,
// validating every value against the schema.
func UnmarshalAnswers(b []byte, s Schema) ([]Answer, error) {
	var in []answerJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, err
	}
	out := make([]Answer, 0, len(in))
	for i, aj := range in {
		a, err := answerFromJSON(s, i, aj)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// DecodeAnswers reads a JSON answer array into a fresh log, resolving label
// strings and column names through the schema.
func DecodeAnswers(r io.Reader, s Schema) (*AnswerLog, error) {
	var in []answerJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	l := NewAnswerLog()
	for i, aj := range in {
		a, err := answerFromJSON(s, i, aj)
		if err != nil {
			return nil, err
		}
		l.Add(a)
	}
	return l, nil
}

// ReadAnswersCSV parses answers from CSV records worker,row,column,value,
// with an optional worker,row,column,value header. Labels are given by
// name.
func ReadAnswersCSV(r io.Reader, s Schema) (*AnswerLog, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return NewAnswerLog(), nil
	}
	start := 0
	if len(recs[0]) == 4 && recs[0][0] == "worker" {
		start = 1 // skip header
	}
	l := NewAnswerLog()
	for i := start; i < len(recs); i++ {
		rec := recs[i]
		if len(rec) != 4 {
			return nil, fmt.Errorf("tabular: csv row %d has %d fields, want 4", i, len(rec))
		}
		row, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("tabular: csv row %d: bad row index: %w", i, err)
		}
		j := s.ColumnIndex(rec[2])
		if j < 0 {
			return nil, fmt.Errorf("tabular: csv row %d: unknown column %q", i, rec[2])
		}
		col := s.Columns[j]
		var v Value
		if col.Type == Categorical {
			idx := -1
			for k, lbl := range col.Labels {
				if lbl == rec[3] {
					idx = k
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("tabular: csv row %d: unknown label %q", i, rec[3])
			}
			v = LabelValue(idx)
		} else {
			x, err := strconv.ParseFloat(rec[3], 64)
			if err != nil {
				return nil, fmt.Errorf("tabular: csv row %d: bad number: %w", i, err)
			}
			v = NumberValue(x)
		}
		l.Add(Answer{Worker: WorkerID(rec[0]), Cell: Cell{Row: row, Col: j}, Value: v})
	}
	return l, nil
}
