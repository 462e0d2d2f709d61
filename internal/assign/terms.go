package assign

import (
	"math"

	"tcrowd/internal/core"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// cellTerms are the worker-independent parts of every cell's information
// gain on one fitted model: for a categorical cell its posterior with
// p ln p per label, their sum G and the entropy H0 = -G; for a continuous
// cell its posterior variance v0. Only the worker's variance and row errors
// differ between the requests one published State serves, so StructureIG
// computes these once per state instead of once per scored cell.
type cellTerms struct {
	// cell[key] belongs to cell key = row*nCols + col.
	cell []cellTerm
	// label holds each categorical cell's per-label terms, contiguously.
	label []labelTerm
}

// cellTerm is one cell's entry in cellTerms.
type cellTerm struct {
	// off is the cell's first label term; -1 marks a continuous cell.
	off, n int32
	// g = Σ p ln p and h0 = -Σ p ln p of a categorical posterior.
	g, h0 float64
	// v0 is a continuous cell's standardized posterior variance.
	v0 float64
}

// labelTerm caches p, ln p and p ln p of one posterior label (0 for the
// logarithms of a zero-probability label).
type labelTerm struct {
	p, lnp, plnp float64
}

// newCellTerms lays out and fills the terms of every cell of m.
func newCellTerms(m *core.Model) *cellTerms {
	tbl := m.Table
	nCols := tbl.NumCols()
	t := &cellTerms{cell: make([]cellTerm, tbl.NumCells())}
	nLabels := int32(0)
	for key := range t.cell {
		col := tbl.Schema.Columns[key%nCols]
		if col.Type != tabular.Categorical {
			t.cell[key].off = -1
			continue
		}
		t.cell[key].off, t.cell[key].n = nLabels, int32(col.NumLabels())
		nLabels += t.cell[key].n
	}
	t.label = make([]labelTerm, nLabels)
	t.refreshAll(m)
	return t
}

// refreshAll recomputes every cell's terms from m's current posteriors.
func (t *cellTerms) refreshAll(m *core.Model) {
	for key := range t.cell {
		t.refresh(m, key)
	}
}

// refresh recomputes cell key's terms from m's current posterior: the
// fitted one when the cell is answered, the uniform (categorical) or
// N(0, 1) (continuous) prior otherwise — what PosteriorCat and
// PosteriorCont return.
//
//tcrowd:noalloc
func (t *cellTerms) refresh(m *core.Model, key int) {
	nCols := m.Table.NumCols()
	i, j := key/nCols, key%nCols
	ct := &t.cell[key]
	if ct.off < 0 {
		ct.v0 = 1
		if m.Answered[i][j] {
			ct.v0 = m.ContVar[i][j]
		}
		return
	}
	post := m.CatPost[i][j]
	labels := t.label[ct.off : ct.off+ct.n]
	ct.g, ct.h0 = 0, 0
	for z := range labels {
		p := 1 / float64(ct.n)
		if post != nil {
			p = post[z]
		}
		lt := labelTerm{p: p}
		if p > 0 {
			lt.lnp = math.Log(p)
			lt.plnp = p * lt.lnp
			ct.g += lt.plnp
			ct.h0 -= lt.plnp
		}
		labels[z] = lt
	}
}

// catGain is catInfoGain(post, q) on cell ct's cached terms, with the same
// floating-point operations: only the terms that depend on q are computed.
func (t *cellTerms) catGain(ct cellTerm, q float64) float64 {
	l := int(ct.n)
	if l < 2 {
		return 0
	}
	q = stats.Clamp(q, 1e-9, 1-1e-9)
	r := (1 - q) / float64(l-1)
	lnq, lnr := math.Log(q), math.Log(r)
	expH := 0.0
	for _, lt := range t.label[ct.off : ct.off+ct.n] {
		p := lt.p
		cNorm := p*q + (1-p)*r
		if cNorm <= 0 {
			continue
		}
		var t1 float64
		if p > 0 {
			t1 = p * q * (lt.lnp + lnq)
		}
		t2 := r*(ct.g-lt.plnp) + r*(1-p)*lnr
		h := math.Log(cNorm) - (t1+t2)/cNorm
		expH += cNorm * h
	}
	return ct.h0 - expH
}
