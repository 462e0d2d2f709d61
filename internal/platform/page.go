package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"tcrowd/internal/tabular"
)

// errNonFinite fails a page whose estimate or worker quality is NaN or
// infinite: JSON has no form for it, so the read answers a typed 500
// instead of a 200 with a broken body.
var errNonFinite = errors.New("platform: non-finite value in the published model")

// maxPooledPage caps the buffers returned to pagePool: one unpaginated
// read of a huge table must not pin its body in the pool for good.
const maxPooledPage = 1 << 20

// pageWriter appends GET /estimates bodies straight into a byte buffer —
// the bytes json.Encoder.Encode writes for the api.EstimatesResponse of
// that page, field order, string escaping and float formatting included,
// without building the response value or reflecting over it. Writers are
// pooled, so a steady-state page write allocates nothing; they hold no
// per-project or per-generation state between requests.
type pageWriter struct {
	buf  []byte
	keys []tabular.WorkerID // worker_quality keys, sorted per write
}

var pagePool = sync.Pool{New: func() any { return new(pageWriter) }}

func getPageWriter() *pageWriter { return pagePool.Get().(*pageWriter) }

func putPageWriter(pw *pageWriter) {
	if cap(pw.buf) <= maxPooledPage {
		pagePool.Put(pw)
	}
}

// write renders one page of the row-major cell walk over the pinned
// result into pw.buf: start is the cell ordinal to begin at, limit caps
// the estimates (0 = all), and next_cursor — re-encoding the pinned
// generation — is set when cells remain. worker_quality is written only
// when workers is set (the first page of a walk). It fails with
// errNonFinite when the page would carry a NaN or infinite number.
func (pw *pageWriter) write(proj *Project, res *InferenceResult, fresh bool, start, limit int, workers bool) error {
	b := append(pw.buf[:0], `{"estimates":`...)
	cols := proj.Table.Schema.Columns
	m := len(cols)
	total := proj.Table.NumRows() * m
	n, next, ok := 0, -1, true
	for ord := start; ord < total && ok; ord++ {
		if limit > 0 && n >= limit {
			next = ord
			break
		}
		i, j := ord/m, ord%m
		v := res.Estimates[i][j]
		if v.IsNone() {
			continue
		}
		if n == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		n++
		b = append(b, `{"entity":`...)
		b = appendJSONString(b, proj.Table.Entities[i])
		b = append(b, `,"column":`...)
		b = appendJSONString(b, cols[j].Name)
		if v.Kind == tabular.Label {
			b = append(b, `,"label":`...)
			b = appendJSONString(b, cols[j].Labels[v.L])
		} else {
			b = append(b, `,"number":`...)
			b, ok = appendJSONFloat(b, v.X)
		}
		b = append(b, '}')
	}
	if n == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	if workers && len(res.WorkerQuality) > 0 {
		// encoding/json sorts map keys by their bytes; so does this, which
		// keeps a pinned page byte-identical on every node serving it.
		keys := pw.keys[:0]
		for u := range res.WorkerQuality {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		pw.keys = keys
		b = append(b, `,"worker_quality":{`...)
		for k, u := range keys {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, string(u))
			b = append(b, ':')
			var fin bool
			b, fin = appendJSONFloat(b, res.WorkerQuality[u])
			ok = ok && fin
		}
		b = append(b, '}')
	}
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(res.Iterations), 10)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, res.Converged)
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(res.Generation), 10)
	b = append(b, `,"answers_seen":`...)
	b = strconv.AppendInt(b, int64(res.AnswersSeen), 10)
	b = append(b, `,"fresh":`...)
	b = strconv.AppendBool(b, fresh)
	if next >= 0 {
		b = append(b, `,"next_cursor":"`...)
		b = appendCursor(b, res.Generation, next)
		b = append(b, '"')
	}
	pw.buf = append(b, "}\n"...)
	if !ok {
		return errNonFinite
	}
	return nil
}

// appendJSONString appends s as a JSON string, byte-identical to
// encoding/json's output (which escapes HTML characters by default). The
// common case — nothing to escape — is a plain copy; anything else takes
// json.Marshal's own escaping.
func appendJSONString(b []byte, s string) []byte {
	if jsonNeedsEscape(s) {
		q, _ := json.Marshal(s) // marshalling a string cannot fail
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonNeedsEscape reports whether encoding/json would escape any byte of
// s: quote, backslash, control bytes, the HTML characters <, > and &,
// U+2028 and U+2029, and invalid UTF-8.
func jsonNeedsEscape(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return true
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return true
		}
		i += size
	}
	return false
}

// appendJSONFloat appends f with encoding/json's float64 rule: 'f'
// formatting unless |f| < 1e-6 or |f| >= 1e21, then 'e' with a one-digit
// negative exponent cleaned up (e-09 -> e-9). ok is false for NaN and
// ±Inf, which have no JSON form.
func appendJSONFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendCursor appends the opaque-but-readable pagination cursor
// "<generation>:<ordinal>": the pinned generation and the next cell
// ordinal.
func appendCursor(b []byte, generation, ord int) []byte {
	b = strconv.AppendInt(b, int64(generation), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(ord), 10)
}

// decodeCursor parses a ?cursor= value. Only the canonical form
// appendCursor writes is accepted — decimal digits without sign or
// leading zeros, generation > 0 — so every accepted cursor round-trips.
func decodeCursor(raw string) (generation, ord int, err error) {
	g, o, found := strings.Cut(raw, ":")
	generation, gok := cursorField(g)
	ord, ook := cursorField(o)
	if !found || !gok || !ook || generation == 0 {
		return 0, 0, fmt.Errorf("platform: bad cursor %q (want \"<generation>:<ordinal>\")", raw)
	}
	return generation, ord, nil
}

// cursorField parses one canonical non-negative decimal cursor field.
func cursorField(s string) (int, bool) {
	if s == "" || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s) // fails only on overflow
	return n, err == nil
}
