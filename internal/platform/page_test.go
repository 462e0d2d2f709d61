package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"tcrowd/api"
	"tcrowd/internal/metrics"
	"tcrowd/internal/tabular"
)

// estimatesResp / estimateJSON are the wire shapes, defined in package api
// and aliased here for the server-side tests.
type (
	estimatesResp = api.EstimatesResponse
	estimateJSON  = api.Estimate
)

// renderEstimates is the reference the page writer is held to: it builds
// one page of the row-major cell walk over a pinned result as an
// api.EstimatesResponse value, for encoding/json to encode (it was the
// serving path before the writer). workers selects whether the page
// carries worker_quality, as the first page of a walk does.
func renderEstimates(proj *Project, res *InferenceResult, fresh bool, start, limit int, workers bool) estimatesResp {
	resp := estimatesResp{
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		Generation:  res.Generation,
		AnswersSeen: res.AnswersSeen,
		Fresh:       fresh,
	}
	if workers {
		resp.WorkerQuality = make(map[string]float64, len(res.WorkerQuality))
		for u, q := range res.WorkerQuality {
			resp.WorkerQuality[string(u)] = q
		}
	}
	cols := proj.Table.Schema.Columns
	m := len(cols)
	total := proj.Table.NumRows() * m
	for ord := start; ord < total; ord++ {
		if limit > 0 && len(resp.Estimates) >= limit {
			resp.NextCursor = encodeCursor(res.Generation, ord)
			break
		}
		i, j := ord/m, ord%m
		v := res.Estimates[i][j]
		if v.IsNone() {
			continue
		}
		ej := estimateJSON{Entity: proj.Table.Entities[i], Column: cols[j].Name}
		if v.Kind == tabular.Label {
			lbl := cols[j].Labels[v.L]
			ej.Label = &lbl
		} else {
			x := v.X
			ej.Number = &x
		}
		resp.Estimates = append(resp.Estimates, ej)
	}
	return resp
}

// encodeCursor is the reference cursor encoding.
func encodeCursor(generation, ord int) string {
	return strconv.Itoa(generation) + ":" + strconv.Itoa(ord)
}

// referencePage is what json.Encoder writes for renderEstimates' page.
func referencePage(proj *Project, res *InferenceResult, fresh bool, start, limit int, workers bool) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(renderEstimates(proj, res, fresh, start, limit, workers))
	return buf.Bytes(), err
}

// checkPage compares one page write against the reference: the same
// bytes, or — when encoding/json rejects the page — errNonFinite.
func checkPage(t *testing.T, proj *Project, res *InferenceResult, fresh bool, start, limit int, workers bool) {
	t.Helper()
	want, werr := referencePage(proj, res, fresh, start, limit, workers)
	pw := getPageWriter()
	defer putPageWriter(pw)
	err := pw.write(proj, res, fresh, start, limit, workers)
	if werr != nil {
		if !errors.Is(err, errNonFinite) {
			t.Fatalf("start %d limit %d: encoding/json fails (%v), writer err %v", start, limit, werr, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("start %d limit %d: writer err %v", start, limit, err)
	}
	if !bytes.Equal(pw.buf, want) {
		t.Fatalf("start %d limit %d workers %v:\nwriter %s\nwant   %s", start, limit, workers, pw.buf, want)
	}
}

// publishedDemo publishes a fitted generation of a demoSchema project
// whose last two rows have no answers, so their cells stay unestimated.
func publishedDemo(t *testing.T, rows int) (*Project, *InferenceResult) {
	t.Helper()
	p := New(21)
	t.Cleanup(func() { p.Close() })
	proj, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		u := tabular.WorkerID(fmt.Sprintf("w%d", w))
		for row := 0; row < rows-2; row++ {
			if err := submitOne(p, "a", u, row, "category", tabular.LabelValue((row+w/3)%3)); err != nil {
				t.Fatal(err)
			}
			x := 0.37*float64(row*row) + 1e-7*float64(w) + float64(w%2)
			if err := submitOne(p, "a", u, row, "price", tabular.NumberValue(x)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := p.RunInference("a")
	if err != nil {
		t.Fatal(err)
	}
	return proj, res
}

// TestEstimatesPageBytesMatchEncodingJSON pins the page writer to the
// bytes encoding/json produced for the same page before the writer: first
// pages (with worker_quality) and cursor pages (without), across limits,
// unestimated cells and the empty page past the end.
func TestEstimatesPageBytesMatchEncodingJSON(t *testing.T) {
	proj, res := publishedDemo(t, 60)
	total := proj.Table.NumCells()
	none := 0
	for _, row := range res.Estimates {
		for _, v := range row {
			if v.IsNone() {
				none++
			}
		}
	}
	if none == 0 || len(res.WorkerQuality) != 4 {
		t.Fatalf("fixture: %d unestimated cells, %d workers", none, len(res.WorkerQuality))
	}
	for _, limit := range []int{0, 1, 7, 100, total + 1} {
		for _, start := range []int{0, 1, 7, total - 5, total, total + 3} {
			for _, fresh := range []bool{true, false} {
				checkPage(t, proj, res, fresh, start, limit, start == 0)
				checkPage(t, proj, res, fresh, start, limit, start != 0)
			}
		}
	}
	// The empty page: "estimates":null, no next_cursor.
	pw := getPageWriter()
	defer putPageWriter(pw)
	if err := pw.write(proj, res, true, total, 10, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pw.buf, []byte(`{"estimates":null,"iterations":`)) || bytes.Contains(pw.buf, []byte("next_cursor")) {
		t.Fatalf("empty page: %s", pw.buf)
	}
}

// hostileFixture is a one-generation table whose strings and numbers
// exercise every escaping and float-format branch of the writer.
func hostileFixture(entity, column, label string, x, q float64) (*Project, *InferenceResult) {
	schema := tabular.Schema{Key: "k", Columns: []tabular.Column{
		{Name: column, Type: tabular.Categorical, Labels: []string{label, "b<&>"}},
		{Name: column + "\u2028", Type: tabular.Continuous},
	}}
	tbl := &tabular.Table{Schema: schema, Entities: []string{entity, entity + "\x00\"\\", "e\xff"}}
	est := metrics.Estimates{
		{tabular.LabelValue(0), tabular.NumberValue(x)},
		{{}, tabular.NumberValue(-x / 3)},
		{tabular.LabelValue(1), {}},
	}
	res := &InferenceResult{
		Estimates:     est,
		WorkerQuality: map[tabular.WorkerID]float64{tabular.WorkerID(entity): q, tabular.WorkerID(label): 0.5, "z": 1e-7},
		Iterations:    3,
		Converged:     true,
		Generation:    17,
		AnswersSeen:   41,
	}
	return &Project{Table: tbl}, res
}

// TestEstimatesPageWriteAllocs pins a page write on a warm writer — a
// 100-estimate first page with 60 workers' quality — to at most two
// allocations, and that count does not grow with the page size. Requests
// recycle writers through pagePool; the pool itself is not measured,
// because under the race detector sync.Pool drops items on purpose.
func TestEstimatesPageWriteAllocs(t *testing.T) {
	proj, res := publishedDemo(t, 600)
	for u := 0; u < 56; u++ {
		res.WorkerQuality[tabular.WorkerID(fmt.Sprintf("extra-%02d", u))] = 0.5
	}
	pw := getPageWriter()
	defer putPageWriter(pw)
	for _, limit := range []int{100, 1000} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := pw.write(proj, res, true, 0, limit, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("limit %d: %.1f allocs per page write, want <= 2", limit, allocs)
		}
	}
}

// FuzzEstimatesPage holds the writer to encoding/json over arbitrary
// entity, column and label strings, float64 bit patterns (NaN and ±Inf
// included) and page windows: the bytes match, or both refuse the page.
func FuzzEstimatesPage(f *testing.F) {
	// The seeds, which plain `go test` runs too, reach every escaping and
	// float-format branch.
	strs := []string{"plain", `q"uote`, "back\\slash", "ctl\x01\x1f\n", "<b>&amp;</b>",
		"line\u2028sep\u2029", "bad\xff\xfeutf8", "ünïcödé 世界", "\x7f", ""}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-7, 1e-6, 1e20, 1e21, 123456789.125,
		5e-324, math.MaxFloat64, math.NaN(), math.Inf(-1)}
	for i, s := range strs {
		for k, x := range floats {
			f.Add(s, s+"c", s+"l", math.Float64bits(x), math.Float64bits(floats[(k+i)%len(floats)]), i+k, k)
		}
	}
	f.Fuzz(func(t *testing.T, entity, column, label string, xbits, qbits uint64, start, limit int) {
		proj, res := hostileFixture(entity, column, label, math.Float64frombits(xbits), math.Float64frombits(qbits))
		span := proj.Table.NumCells() + 2
		start, limit = ((start%span)+span)%span, ((limit%span)+span)%span
		checkPage(t, proj, res, start%2 == 1, start, limit, start == 0)
		checkPage(t, proj, res, true, start, limit, true)
	})
}

// FuzzDecodeCursor: the cursor parser never panics, accepts only the
// canonical "<gen>:<ord>" with gen > 0 and ord >= 0 — so whatever it
// accepts re-encodes to the same string — and reads back every cursor
// the writer emits.
func FuzzDecodeCursor(f *testing.F) {
	for _, s := range []string{"1:0", "12:345", "0:0", "-1:0", "+1:0", "01:0", "1:00", "1:", ":1", "1:2:3", "x:1", "9223372036854775808:0"} {
		f.Add(s, 1, 0)
	}
	f.Fuzz(func(t *testing.T, raw string, gen, ord int) {
		g, o, err := decodeCursor(raw)
		if err == nil {
			if g <= 0 || o < 0 || encodeCursor(g, o) != raw {
				t.Fatalf("decodeCursor(%q) = (%d, %d) accepted a non-canonical cursor", raw, g, o)
			}
		} else if g != 0 || o != 0 {
			t.Fatalf("decodeCursor(%q) failed but returned (%d, %d)", raw, g, o)
		}
		if gen > 0 && ord >= 0 {
			enc := string(appendCursor(nil, gen, ord))
			if g, o, err := decodeCursor(enc); err != nil || g != gen || o != ord || enc != encodeCursor(gen, ord) {
				t.Fatalf("cursor %q read back as (%d, %d, %v)", enc, g, o, err)
			}
		}
	})
}

// TestNonFiniteNumbersNeverBreakReads covers the huge-answer fault end to
// end: a numeric answer beyond ±1e100 (where one answer near 1.3e154
// made a column's variance +Inf) is refused with the typed 400, alone or
// in a batch; one that entered the log without validation anyway, as WAL
// replay of an answer acknowledged before the check would, is skipped by
// the model, so every read answers 200 with finite values; and a result
// that holds a non-finite value answers a typed 500 internal on every
// read instead of a 200 header over an empty body.
func TestNonFiniteNumbersNeverBreakReads(t *testing.T) {
	srv, p := newTestServer(t)
	if _, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 2}); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 4; w++ {
		resp := postJSON(t, srv.URL+"/v1/projects/a/answers",
			fmt.Sprintf(`{"worker":"w%d","row":0,"column":"price","number":%d}`, w, 10+w))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("ordinary answer %d: status %d", w, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, srv.URL+"/v1/projects/a/answers", `{"worker":"w5","row":0,"column":"price","number":2e154}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge answer: status %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
		t.Fatalf("huge answer: code %q", e.Code)
	}
	resp = postJSON(t, srv.URL+"/v1/projects/a/answers", `{"answers":[
		{"worker":"w5","row":1,"column":"price","number":3},
		{"worker":"w5","row":0,"column":"price","number":-1e101}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a huge answer: status %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeBatchRejected || len(e.Items) != 1 ||
		e.Items[0].Index != 1 || e.Items[0].Code != api.CodeBadRequest {
		t.Fatalf("batch with a huge answer: %+v", e)
	}
	if err := submitOne(p, "a", "w5", 1, "price", tabular.NumberValue(math.NaN())); err == nil {
		t.Fatal("NaN answer accepted")
	}

	proj, err := p.Project("a")
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	proj.Log.Add(tabular.Answer{Worker: "w5", Cell: tabular.Cell{Row: 0, Col: 1}, Value: tabular.NumberValue(2e154)})
	p.mu.Unlock()
	res, err := p.RunInference("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "?limit=1", fmt.Sprintf("?cursor=%d:1", res.Generation)} {
		resp, err := http.Get(srv.URL + "/v1/projects/a/estimates" + q)
		if err != nil {
			t.Fatal(err)
		}
		var est api.EstimatesResponse
		err = json.NewDecoder(resp.Body).Decode(&est)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(est.Estimates) == 0 {
			t.Fatalf("estimates%s over a log holding 2e154: status %d, %v", q, resp.StatusCode, err)
		}
		for _, e := range est.Estimates {
			if e.Number != nil && (math.IsInf(*e.Number, 0) || math.IsNaN(*e.Number)) {
				t.Fatalf("estimates%s: non-finite estimate %+v", q, e)
			}
		}
	}

	bad := &InferenceResult{Generation: res.Generation + 1, AnswersSeen: res.AnswersSeen,
		WorkerQuality: res.WorkerQuality, Estimates: make(metrics.Estimates, len(res.Estimates))}
	for i, row := range res.Estimates {
		bad.Estimates[i] = append([]tabular.Value(nil), row...)
	}
	bad.Estimates[0][1] = tabular.NumberValue(math.NaN())
	proj.inferMu.Lock()
	p.installResult(proj, bad, api.WatchEvent{Project: "a", Generation: bad.Generation}, nil)
	proj.inferMu.Unlock()
	for _, q := range []string{"", "?limit=1", fmt.Sprintf("?cursor=%d:1", bad.Generation)} {
		resp, err := http.Get(srv.URL + "/v1/projects/a/estimates" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("ETag") != "" {
			t.Fatalf("estimates%s over a non-finite model: status %d, ETag %q", q, resp.StatusCode, resp.Header.Get("ETag"))
		}
		if e := decodeEnvelope(t, resp); e.Code != api.CodeInternal {
			t.Fatalf("estimates%s: code %q", q, e.Code)
		}
	}

	// writeJSON, the renderer of every other response, encodes before
	// it writes the header.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Err.Code != api.CodeInternal {
		t.Fatalf("writeJSON of +Inf: status %d, body %q", rec.Code, rec.Body)
	}
}
