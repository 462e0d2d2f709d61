package assign

import (
	"math"
	"slices"

	"tcrowd/internal/core"
	"tcrowd/internal/metrics"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// ErrorModel is the attribute-correlation model of Sec. 5.2: marginal error
// distributions per column (Table 4), conditional error distributions per
// ordered column pair (Table 5, four datatype cases), and the correlation
// coefficients W_jk (Eq. 8) that weight the per-attribute conditionals in
// the linear combination of Eq. 7.
//
// An "error" is defined against the current estimated truth: for a
// categorical answer e = 1{a != T-hat}; for a continuous answer
// e = z(a) - z(T-hat) in standardized units. The model keeps one error per
// (worker, cell) — a worker's latest answer on a cell defines their error
// there — so an error is a removable unit and the whole model can be
// maintained from sufficient statistics.
//
// Answers come in as arguments and are never retained, so a fitted model
// can be shared read-only while the log it was fitted on keeps growing.
//
// # Sufficient-statistics maintenance
//
// Every fitted distribution here is a closed-form function of low-order
// moment sums: Bernoulli and Normal fits need (n, Σe, Σe²); the four
// Table 5 conditionals and the Pearson W_jk need, per unordered column
// pair, (n, Σx, Σy, Σx², Σy², Σxy, Σx²y, Σy²x) over the co-observed
// (e_j, e_k) pairs of each (worker, row) error vector — the third-order
// cross moments are what lets a pair's class-conditional Normal fits
// (cases b-d, where one side is a 0/1 indicator) be recovered from sums.
// The model therefore maintains those accumulators incrementally:
//
//   - Rebuild recomputes everything from scratch against fresh estimates —
//     the polish-anchor path, with every buffer arena-reused so a steady
//     rebuild allocates nothing.
//   - UpdateCells adjusts only the accumulator contributions of the given
//     cells' errors (remove old value, add new) and refits the
//     closed-forms — O(answers in the touched cells × row width), the
//     streaming-refresh path.
//
// Continuous errors are winsorized at 3 robust sigmas per column; the
// bounds are frozen at Rebuild time and reused verbatim by UpdateCells and
// the query paths, so incremental updates never reshuffle every stored
// error. Incremental add/remove accumulates float rounding relative to a
// from-scratch pass; the periodic Rebuild at polish anchors resets it.
type ErrorModel struct {
	m *core.Model
	// nCols/rows mirror the table dimensions.
	nCols, rows int
	// isCat[j] marks categorical columns.
	isCat []bool
	// minPairs is the sample-size floor below which a pair falls back to
	// the marginal.
	minPairs int

	// Worker registry: widx maps a worker to its slot; rowVec[w*rows+i]
	// holds the errArena offset of (worker w, row i)'s dense error vector
	// (nCols wide, NaN marking columns without an observed error), or -1.
	widx    map[tabular.WorkerID]int
	workers []tabular.WorkerID
	rowVec  []int32
	// vecSlots lists the rowVec slots with live vectors, for full passes.
	vecSlots []int32
	errArena []float64

	// marg[j] are the per-column marginal moment sums; pairs[j*nCols+k]
	// (j < k only) the per-pair sums with x = e_j, y = e_k.
	marg  []margAcc
	pairs []pairAcc

	// Fitted closed-forms, refreshed by fitAll after every accumulator
	// change. pairFit/pairOK/w are flat [nCols*nCols] ordered-pair tables.
	margCat  []stats.Bernoulli
	margCont []stats.Normal
	pairFit  []pairModel
	pairOK   []bool
	w        []float64

	// boundLo/boundHi winsorize continuous errors per column at 3 robust
	// sigmas: crowd error is long-tailed (a spammer's wild answers would
	// otherwise dominate every second-moment estimate). Frozen at Rebuild.
	boundLo, boundHi []float64

	// Rebuild scratch: per-column continuous error samples (for the robust
	// bounds) and the |x - med| deviations buffer.
	colScratch [][]float64
	devScratch []float64
}

// margAcc holds one column's marginal moment sums over its current errors.
type margAcc struct {
	n, sum, sumsq float64
}

func (a *margAcc) add(x float64)    { a.n++; a.sum += x; a.sumsq += x * x }
func (a *margAcc) remove(x float64) { a.n--; a.sum -= x; a.sumsq -= x * x }

// pairAcc holds one unordered column pair's moment sums over the
// co-observed error pairs (x = e_j, y = e_k with j < k).
type pairAcc struct {
	n             float64
	sx, sy        float64
	sxx, syy, sxy float64
	sxxy, syyx    float64 // Σx²y and Σy²x — the cat-split cross moments
}

func (a *pairAcc) add(x, y float64) {
	a.n++
	a.sx += x
	a.sy += y
	a.sxx += x * x
	a.syy += y * y
	a.sxy += x * y
	a.sxxy += x * x * y
	a.syyx += y * y * x
}

func (a *pairAcc) remove(x, y float64) {
	a.n--
	a.sx -= x
	a.sy -= y
	a.sxx -= x * x
	a.syy -= y * y
	a.sxy -= x * y
	a.sxxy -= x * x * y
	a.syyx -= y * y * x
}

// pairModel holds the conditional distribution P(e_j | e_k) in the four
// datatype cases of Table 5.
type pairModel struct {
	jCat, kCat bool
	// catCat: P(e_j = 1 | e_k = 0) and P(e_j = 1 | e_k = 1).
	pGivenRight, pGivenWrong float64
	// contCont: joint bivariate normal of (e_j, e_k); conditional comes
	// from ConditionalY with the roles swapped accordingly.
	joint stats.BivariateNormal
	// contGivenCat (j continuous, k categorical): N when e_k = 0 / 1.
	contRight, contWrong stats.Normal
	// catGivenCont (j categorical, k continuous): per-class normals of e_k
	// given e_j plus the marginal P(e_j = 1), combined by Bayes.
	ekGivenRight, ekGivenWrong stats.Normal
	pj                         float64
}

// NewErrorModel returns an empty model bound to m; Rebuild fits it.
func NewErrorModel(m *core.Model) *ErrorModel {
	tbl := m.Table
	nCols := tbl.NumCols()
	em := &ErrorModel{
		m:          m,
		nCols:      nCols,
		rows:       tbl.NumRows(),
		isCat:      make([]bool, nCols),
		minPairs:   8,
		widx:       make(map[tabular.WorkerID]int),
		marg:       make([]margAcc, nCols),
		pairs:      make([]pairAcc, nCols*nCols),
		margCat:    make([]stats.Bernoulli, nCols),
		margCont:   make([]stats.Normal, nCols),
		pairFit:    make([]pairModel, nCols*nCols),
		pairOK:     make([]bool, nCols*nCols),
		w:          make([]float64, nCols*nCols),
		boundLo:    make([]float64, nCols),
		boundHi:    make([]float64, nCols),
		colScratch: make([][]float64, nCols),
	}
	for j := 0; j < nCols; j++ {
		em.isCat[j] = tbl.Schema.Columns[j].Type == tabular.Categorical
	}
	return em
}

// BuildErrorModel fits the marginal and pairwise error distributions from
// the answers of the model's source Log and its current estimates.
func BuildErrorModel(m *core.Model) *ErrorModel {
	em := NewErrorModel(m)
	em.Rebuild(m.Log.Prefix(), m.Estimates())
	return em
}

// workerOf returns worker u's slot, registering a first-seen worker (and
// growing the row-vector table) on the way.
func (em *ErrorModel) workerOf(u tabular.WorkerID) int {
	k, ok := em.widx[u]
	if !ok {
		k = len(em.workers)
		em.widx[u] = k
		em.workers = append(em.workers, u)
		for r := 0; r < em.rows; r++ {
			em.rowVec = append(em.rowVec, -1)
		}
	}
	return k
}

// vecFor returns (allocating on first touch) the dense error vector of
// (worker slot w, row i). Vectors live in one arena addressed by offset, so
// arena growth never invalidates existing vectors.
func (em *ErrorModel) vecFor(w, i int) []float64 {
	slot := int32(w*em.rows + i)
	if off := em.rowVec[slot]; off >= 0 {
		return em.errArena[off : off+int32(em.nCols)]
	}
	off := len(em.errArena)
	for j := 0; j < em.nCols; j++ {
		em.errArena = append(em.errArena, math.NaN())
	}
	em.rowVec[slot] = int32(off)
	em.vecSlots = append(em.vecSlots, slot)
	return em.errArena[off : off+em.nCols]
}

// answerError computes one answer's error against guess, clamping
// continuous errors into the frozen winsorization bounds (when clamp is
// set and the column has non-degenerate bounds).
func (em *ErrorModel) answerError(a tabular.Answer, guess tabular.Value, clamp bool) float64 {
	j := a.Cell.Col
	if a.Value.Kind == tabular.Label {
		if a.Value.Equal(guess) {
			return 0
		}
		return 1
	}
	e := em.m.ToZ(j, a.Value.X) - em.m.ToZ(j, guess.X)
	if clamp && em.boundHi[j] > em.boundLo[j] {
		e = stats.Clamp(e, em.boundLo[j], em.boundHi[j])
	}
	return e
}

// Rebuild refits the whole model from scratch against est and answers: per-
// (worker, cell) errors, fresh winsorization bounds, accumulators and
// closed-form fits. Every buffer is arena-reused, so a steady-state rebuild
// allocates nothing. The polish-anchor path; between polishes, UpdateCells.
//
//tcrowd:noalloc
func (em *ErrorModel) Rebuild(answers tabular.AnswerView, est metrics.Estimates) {
	// Reset the per-(worker, row) vectors and accumulators.
	for i := range em.rowVec {
		em.rowVec[i] = -1
	}
	em.vecSlots = em.vecSlots[:0]
	em.errArena = em.errArena[:0]
	for j := range em.marg {
		em.marg[j] = margAcc{}
	}
	for idx := range em.pairs {
		em.pairs[idx] = pairAcc{}
	}

	// Pass 1: raw (unclamped) last-answer-wins errors into the vectors.
	for k := 0; k < answers.Len(); k++ {
		a := answers.At(k)
		i, j := a.Cell.Row, a.Cell.Col
		guess := est[i][j]
		if guess.IsNone() {
			continue
		}
		v := em.vecFor(em.workerOf(a.Worker), i)
		v[j] = em.answerError(a, guess, false)
	}

	// Pass 2: fresh robust winsorization bounds per continuous column.
	for j := 0; j < em.nCols; j++ {
		if em.isCat[j] {
			continue
		}
		em.colScratch[j] = em.colScratch[j][:0]
	}
	for _, slot := range em.vecSlots {
		off := em.rowVec[slot]
		v := em.errArena[off : off+int32(em.nCols)]
		for j := 0; j < em.nCols; j++ {
			if !em.isCat[j] && !math.IsNaN(v[j]) {
				//lint:allow noalloc colScratch is truncated to :0 above and regrows inside the capacity the first Rebuild sized; the AllocsPerRun pin proves steady-state appends stay in-arena
				em.colScratch[j] = append(em.colScratch[j], v[j])
			}
		}
	}
	for j := 0; j < em.nCols; j++ {
		em.boundLo[j], em.boundHi[j] = 0, 0
		if !em.isCat[j] && len(em.colScratch[j]) > 0 {
			em.boundLo[j], em.boundHi[j] = em.robustBounds(em.colScratch[j], 3)
		}
	}

	// Pass 3: clamp the stored continuous errors into the new bounds and
	// fold every vector into the marginal and pairwise accumulators.
	for _, slot := range em.vecSlots {
		off := em.rowVec[slot]
		v := em.errArena[off : off+int32(em.nCols)]
		for j := 0; j < em.nCols; j++ {
			if math.IsNaN(v[j]) {
				continue
			}
			if !em.isCat[j] && em.boundHi[j] > em.boundLo[j] {
				v[j] = stats.Clamp(v[j], em.boundLo[j], em.boundHi[j])
			}
		}
		for j := 0; j < em.nCols; j++ {
			if math.IsNaN(v[j]) {
				continue
			}
			em.marg[j].add(v[j])
			for k := j + 1; k < em.nCols; k++ {
				if !math.IsNaN(v[k]) {
					em.pairs[j*em.nCols+k].add(v[j], v[k])
				}
			}
		}
	}

	em.fitAll()
}

// UpdateCells re-derives the errors of the given cells (core cell keys,
// row*nCols + col) against est and log and folds the deltas into the
// accumulators — the O(batch) path of a streaming refresh whose polish was
// deferred (cells come from core.RefreshStats.Cells). Winsorization bounds
// stay frozen at their last Rebuild values.
//
//tcrowd:noalloc
func (em *ErrorModel) UpdateCells(log *tabular.AnswerLog, est metrics.Estimates, cells []int) {
	for _, key := range cells {
		i, j := key/em.nCols, key%em.nCols
		guess := est[i][j]
		if guess.IsNone() {
			continue
		}
		it := log.CellAnswers(tabular.Cell{Row: i, Col: j})
		for ai, ok := it.Next(); ok; ai, ok = it.Next() {
			a := log.At(ai)
			e := em.answerError(a, guess, true)
			v := em.vecFor(em.workerOf(a.Worker), i)
			old := v[j]
			if old == e {
				continue
			}
			if !math.IsNaN(old) {
				em.marg[j].remove(old)
				for k := 0; k < em.nCols; k++ {
					if k != j && !math.IsNaN(v[k]) {
						em.pairAcc(j, k).remove(em.orient(j, k, old, v[k]))
					}
				}
			}
			em.marg[j].add(e)
			for k := 0; k < em.nCols; k++ {
				if k != j && !math.IsNaN(v[k]) {
					em.pairAcc(j, k).add(em.orient(j, k, e, v[k]))
				}
			}
			v[j] = e
		}
	}
	em.fitAll()
}

// pairAcc returns the unordered accumulator of columns (j, k).
func (em *ErrorModel) pairAcc(j, k int) *pairAcc {
	if j < k {
		return &em.pairs[j*em.nCols+k]
	}
	return &em.pairs[k*em.nCols+j]
}

// orient maps (e_j, e_k) onto the accumulator's canonical (x, y) = (lower
// column, higher column) order.
func (em *ErrorModel) orient(j, k int, ej, ek float64) (x, y float64) {
	if j < k {
		return ej, ek
	}
	return ek, ej
}

// robustBounds is stats.RobustBounds (median ± k robust sigmas, MAD scale
// with std fallback) on sort-based medians: error populations here scale
// with the whole log, far past the insertion-sort regime stats.Median is
// tuned for. Mutates xs (sorts it) — callers pass scratch.
func (em *ErrorModel) robustBounds(xs []float64, k float64) (lo, hi float64) {
	slices.Sort(xs)
	med := sortedMedian(xs)
	devs := em.devScratch[:0]
	for _, x := range xs {
		devs = append(devs, math.Abs(x-med))
	}
	slices.Sort(devs)
	sigma := sortedMedian(devs) * stats.MADScale
	em.devScratch = devs
	if sigma == 0 {
		sigma = stats.StdDev(xs)
	}
	if sigma == 0 {
		return med, med
	}
	return med - k*sigma, med + k*sigma
}

func sortedMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return 0.5 * (xs[n/2-1] + xs[n/2])
}

// fitAll refreshes every closed-form fit from the accumulators: marginals
// (Table 4), the four-case pair conditionals (Table 5) in both directions
// of each unordered pair, and the Pearson weights W_jk (Eq. 8, bitwise
// symmetric since both directions read the same sums). O(nCols²) with
// constant work per pair.
func (em *ErrorModel) fitAll() {
	for j := 0; j < em.nCols; j++ {
		a := em.marg[j]
		if em.isCat[j] {
			em.margCat[j] = bernoulliFromSums(a.n, a.sum)
		} else {
			em.margCont[j] = normalFromSums(a.n, a.sum, a.sumsq, 1e-6)
		}
	}
	for j := 0; j < em.nCols; j++ {
		for k := j + 1; k < em.nCols; k++ {
			acc := &em.pairs[j*em.nCols+k]
			jk, kj := j*em.nCols+k, k*em.nCols+j
			ok := acc.n >= float64(em.minPairs)
			em.pairOK[jk], em.pairOK[kj] = ok, ok
			if !ok {
				em.w[jk], em.w[kj] = 0, 0
				continue
			}
			wv := pearsonFromSums(acc)
			em.w[jk], em.w[kj] = wv, wv
			em.pairFit[jk] = fitPairFromSums(em.isCat[j], em.isCat[k],
				acc.n, acc.sx, acc.sy, acc.sxx, acc.syy, acc.sxy, acc.sxxy, acc.syyx,
				em.margCat[j].P)
			em.pairFit[kj] = fitPairFromSums(em.isCat[k], em.isCat[j],
				acc.n, acc.sy, acc.sx, acc.syy, acc.sxx, acc.sxy, acc.syyx, acc.sxxy,
				em.margCat[k].P)
		}
	}
}

// bernoulliFromSums fits a categorical column's error rate from (n, Σe);
// errors are exactly 0/1, so Σe counts the wrong answers. Add-one-half
// smoothing, P = (Σe + 0.5)/(n + 1), keeps the conditionals off exact 0
// and 1; with no samples P is 0.5.
func bernoulliFromSums(n, ones float64) stats.Bernoulli {
	if n <= 0 {
		return stats.Bernoulli{P: 0.5}
	}
	return stats.Bernoulli{P: (ones + 0.5) / (n + 1)}
}

// normalFromSums is the maximum-likelihood Normal from moment sums:
// mean Σe/n and population variance Σe²/n − mean², floored at minVar.
func normalFromSums(n, sum, sumsq, minVar float64) stats.Normal {
	if n <= 0 {
		return stats.Normal{Mu: 0, Var: minVar}
	}
	mu := sum / n
	v := sumsq/n - mu*mu
	if v < minVar {
		v = minVar
	}
	return stats.Normal{Mu: mu, Var: v}
}

// normalOrDefaultFromSums is normalFromSums with a 1e-6 variance floor,
// or the N(0, 1) default below two samples.
func normalOrDefaultFromSums(n, sum, sumsq float64) stats.Normal {
	if n < 2 {
		return stats.Normal{Mu: 0, Var: 1}
	}
	return normalFromSums(n, sum, sumsq, 1e-6)
}

// pearsonFromSums is stats.Pearson (population moments) from the pair sums;
// 0 when either side is degenerate.
func pearsonFromSums(a *pairAcc) float64 {
	mx, my := a.sx/a.n, a.sy/a.n
	vx := a.sxx/a.n - mx*mx
	vy := a.syy/a.n - my*my
	if vx <= 0 || vy <= 0 {
		return 0
	}
	cov := a.sxy/a.n - mx*my
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}

// fitPairFromSums fits one Table 5 conditional — e_j given e_k — from the
// pair's moment sums oriented as x = e_j, y = e_k. The class splits of the
// mixed cases fall out of the sums because the categorical side is a 0/1
// indicator: e.g. the e_k = 1 subgroup of x has count Σy, sum Σxy and
// square-sum Σx²y.
func fitPairFromSums(jCat, kCat bool, n, sx, sy, sxx, syy, sxy, sxxy, syyx, pj float64) pairModel {
	pm := pairModel{jCat: jCat, kCat: kCat}
	switch {
	case jCat && kCat:
		pm.pGivenWrong = bernoulliFromSums(sy, sxy).P
		pm.pGivenRight = bernoulliFromSums(n-sy, sx-sxy).P
	case !jCat && !kCat:
		mx, my := sx/n, sy/n
		pm.joint = stats.BivariateNormal{
			MuX: mx, MuY: my,
			VarX: math.Max(1e-6, sxx/n-mx*mx),
			VarY: math.Max(1e-6, syy/n-my*my),
			Cov:  sxy/n - mx*my,
		}
	case !jCat && kCat:
		pm.contWrong = normalOrDefaultFromSums(sy, sxy, sxxy)
		pm.contRight = normalOrDefaultFromSums(n-sy, sx-sxy, sxx-sxxy)
	default: // jCat && !kCat
		pm.ekGivenWrong = normalOrDefaultFromSums(sx, sxy, syyx)
		pm.ekGivenRight = normalOrDefaultFromSums(n-sx, sy-sxy, syy-syyx)
		pm.pj = pj
	}
	return pm
}

// condCatWrong returns P(e_j = 1 | e_k = ek) for a categorical target j.
func (pm *pairModel) condCatWrong(ek float64) float64 {
	if pm.kCat {
		if ek != 0 {
			return pm.pGivenWrong
		}
		return pm.pGivenRight
	}
	// Bayes over the continuous conditioner (case d of Sec. 5.2).
	pw := pm.pj
	likWrong := pm.ekGivenWrong.PDF(ek) * pw
	likRight := pm.ekGivenRight.PDF(ek) * (1 - pw)
	den := likWrong + likRight
	if den <= 0 {
		return pw
	}
	return likWrong / den
}

// condContNormal returns the conditional N(mu, var) of a continuous target
// e_j given e_k = ek.
func (pm *pairModel) condContNormal(ek float64) stats.Normal {
	if pm.kCat {
		if ek != 0 {
			return pm.contWrong
		}
		return pm.contRight
	}
	// contCont: joint holds (e_j, e_k) as (X, Y); we need X | Y = ek, which
	// is ConditionalY on the swapped joint.
	swapped := stats.BivariateNormal{
		MuX: pm.joint.MuY, MuY: pm.joint.MuX,
		VarX: pm.joint.VarY, VarY: pm.joint.VarX,
		Cov: pm.joint.Cov,
	}
	return swapped.ConditionalY(ek)
}

// RowErrors computes a worker's errors E^u_i on a row from their answers
// there (log.RowAnswersByWorker) against the current estimates: the inputs
// to Eq. 7. Columns without an estimate or an answer are absent.
func (em *ErrorModel) RowErrors(answers []tabular.Answer, est metrics.Estimates) map[int]float64 {
	out := map[int]float64{}
	for _, a := range answers {
		if guess := est[a.Cell.Row][a.Cell.Col]; !guess.IsNone() {
			out[a.Cell.Col] = em.answerError(a, guess, true)
		}
	}
	return out
}

// rowErrorVectors is RowErrors for all of a worker's answers
// (log.ByWorker) at once, in the dense layout the conditionals read: row
// i's errors are vecs[at[i]:][:nCols], indexed by column with NaN where
// no error is known, and at[i] < 0 for a row without any known error.
// Allocates twice, however many rows the worker touched.
func (em *ErrorModel) rowErrorVectors(answers []tabular.Answer, est metrics.Estimates) (at []int32, vecs []float64) {
	at = make([]int32, em.rows)
	for i := range at {
		at[i] = -1
	}
	n := int32(0)
	for _, a := range answers {
		if at[a.Cell.Row] < 0 && !est[a.Cell.Row][a.Cell.Col].IsNone() {
			at[a.Cell.Row] = n
			n += int32(em.nCols)
		}
	}
	vecs = make([]float64, n)
	for i := range vecs {
		vecs[i] = math.NaN()
	}
	for _, a := range answers {
		if guess := est[a.Cell.Row][a.Cell.Col]; !guess.IsNone() {
			vecs[at[a.Cell.Row]+int32(a.Cell.Col)] = em.answerError(a, guess, true)
		}
	}
	return at, vecs
}

// denseRowErrors lays a RowErrors map out by column (NaN = absent).
func (em *ErrorModel) denseRowErrors(rowErrs map[int]float64) []float64 {
	errs := make([]float64, em.nCols)
	for k := range errs {
		errs[k] = math.NaN()
	}
	for k, e := range rowErrs {
		errs[k] = e
	}
	return errs
}

// condWeight returns |W_jk|, the weight of the conditioner e_k = errs[k]
// in column j's Eq. 7 combination, or ok = false when e_k is unknown or
// the pair is unusable (too few co-observations, no correlation, or
// k = j, whose pair is never fitted).
func (em *ErrorModel) condWeight(j, k int, errs []float64) (w float64, ok bool) {
	idx := j*em.nCols + k
	if math.IsNaN(errs[k]) || !em.pairOK[idx] {
		return 0, false
	}
	w = math.Abs(em.w[idx])
	return w, w > 1e-9
}

// CondWrongProb predicts P(worker's answer on categorical column j is
// wrong | row errors E) by the W-weighted linear combination of pairwise
// conditionals (Eq. 7). With no usable pair it returns the marginal; with
// no marginal signal it returns 1 - q for quality fallback by the caller
// (signalled by ok = false). Sums run in column order, so identical calls
// return identical bits.
func (em *ErrorModel) CondWrongProb(j int, rowErrs map[int]float64) (p float64, ok bool) {
	return em.condWrongProb(j, em.denseRowErrors(rowErrs))
}

// condWrongProb is CondWrongProb on column-indexed row errors (NaN =
// unknown); the column-j entry itself is never used.
func (em *ErrorModel) condWrongProb(j int, errs []float64) (p float64, ok bool) {
	num, den := 0.0, 0.0
	for k, ek := range errs {
		w, usable := em.condWeight(j, k, errs)
		if !usable {
			continue
		}
		num += w * em.pairFit[j*em.nCols+k].condCatWrong(ek)
		den += w
	}
	if den > 0 {
		return stats.Clamp(num/den, 1e-6, 1-1e-6), true
	}
	if len(em.margCat) > j {
		mp := em.margCat[j].P
		if mp > 0 && mp < 1 {
			return mp, true
		}
	}
	return 0, false
}

// CondErrorNormal predicts the continuous error distribution of column j
// given the row errors, as the W-weighted mixture of pairwise conditionals
// moment-matched to a single normal. ok is false when no pair is usable.
// Sums run in column order, so identical calls return identical bits.
func (em *ErrorModel) CondErrorNormal(j int, rowErrs map[int]float64) (stats.Normal, bool) {
	return em.condErrorNormal(j, em.denseRowErrors(rowErrs))
}

// condErrorNormal is CondErrorNormal on column-indexed row errors (NaN =
// unknown). It re-derives each component per moment pass rather than
// buffering them, so it allocates nothing.
func (em *ErrorModel) condErrorNormal(j int, errs []float64) (stats.Normal, bool) {
	wsum := 0.0
	for k := range errs {
		if w, ok := em.condWeight(j, k, errs); ok {
			wsum += w
		}
	}
	if wsum == 0 {
		return stats.Normal{}, false
	}
	// Moment matching: mixture mean and variance.
	mu := 0.0
	for k, ek := range errs {
		if w, ok := em.condWeight(j, k, errs); ok {
			mu += w / wsum * em.pairFit[j*em.nCols+k].condContNormal(ek).Mu
		}
	}
	v := 0.0
	for k, ek := range errs {
		if w, ok := em.condWeight(j, k, errs); ok {
			c := em.pairFit[j*em.nCols+k].condContNormal(ek)
			d := c.Mu - mu
			v += w / wsum * (c.Var + d*d)
		}
	}
	if v <= 0 {
		v = 1e-6
	}
	return stats.Normal{Mu: mu, Var: v}, true
}

// W returns the correlation coefficient W_jk (Eq. 8); 0 when unestimated.
func (em *ErrorModel) W(j, k int) float64 { return em.w[j*em.nCols+k] }

// MarginalCat returns the marginal wrong-probability of categorical column
// j (Table 4).
func (em *ErrorModel) MarginalCat(j int) stats.Bernoulli { return em.margCat[j] }

// MarginalCont returns the marginal error normal of continuous column j
// (Table 4).
func (em *ErrorModel) MarginalCont(j int) stats.Normal { return em.margCont[j] }
