// Package core implements the paper's primary contribution (Sec. 4): the
// unified probabilistic worker-quality model for tabular data and the EM
// truth-inference algorithm built on it.
//
// Model recap. Worker u has one inherent variance phi_u; cell c_ij has
// difficulty alpha_i * beta_j; the effective answer variance on c_ij is
// s = alpha_i * beta_j * phi_u. A continuous answer is drawn N(T_ij, s)
// (Eq. 1); a categorical answer is correct with probability
// q = erf(eps / sqrt(2 s)) and otherwise uniform over the wrong labels
// (Eqs. 2-3). EM alternates the E-step (per-cell posterior truth
// distributions, Eq. 4) with an M-step that maximises the expected joint
// log-likelihood Q (Eq. 5) by gradient ascent over log-parameters.
//
// Implementation notes (documented deviations, see ARCHITECTURE.md):
//
//   - Continuous columns are z-scored by their answers' mean/std before
//     inference so one phi_u is commensurable across columns; estimates are
//     mapped back to natural units on output.
//   - alpha_i * beta_j * phi_u is scale-ambiguous, so after each M-step
//     alpha and beta are renormalised to geometric mean 1 (folding the
//     scale into phi). Likelihoods are invariant under this.
//   - Posteriors are warm-started from the empirical answer distribution
//     (the standard majority-vote/mean start for crowdsourcing EM) rather
//     than from the flat prior, which would make the first M-step
//     uninformative.
//
// # Performance architecture
//
// The EM hot path is engineered for zero steady-state allocations and
// minimal transcendental work:
//
//   - One decoded store. The model keeps its answers only as
//     sufficient-statistics groups (internal/ingest): one per (cell,
//     worker, label) with its answer count and, for a continuous cell,
//     the moments of the raw values. The E-step, the warm start, the ELBO
//     and the M-step all read a group's answers through those, and
//     standardize with the current column constants as they read.
//   - Fused objective+gradient M-step. The M-step line search evaluates
//     the MAP objective and its log-space gradient in ONE pass over the
//     groups (optimize.MinimizeFused + qFused*), sharing the erf/log work
//     of the quality model between the two; per-group quantities that are
//     constant while the posteriors are frozen (posterior mass on the
//     answered label, squared residuals) are precomputed once per M-step.
//   - Scratch arenas. Groups are sorted by cell with CSR offsets
//     (GroupOff); categorical posteriors live in a single backing arena
//     written in place by the E-step; every per-iteration buffer (theta
//     packing, per-group M-step constants, gradient shards, optimizer
//     workspace) is hoisted into a per-model scratch reused across
//     iterations. After the first EM iteration the engine performs no
//     allocations.
//   - Variance-triple memoisation. Groups sharing a (row, column, worker)
//     triple (one worker's labels on one cell) are adjacent; consecutive
//     groups sharing a triple reuse the clamped variance and its erf/log
//     results instead of recomputing identical transcendentals.
//   - Persistent goroutine pool. With Options.Parallelism > 1 the E-step
//     shards over cells and the M-step over group ranges on the
//     internal/pool worker pool (no per-call goroutine spawning), with
//     deterministic chunking and shard-ordered reductions.
//
// # One engine: Ingest, then RefreshIncremental
//
// Answers enter a model only through Ingest (IngestFrom for the model's
// source log): the batch is validated, decoded against the worker table
// and folded into the internal/ingest group store in place, marking the
// touched cells dirty. RefreshIncremental is the only fit. A model's first
// refresh over usable answers is its cold fit: it seeds every posterior
// from the empirical answer distribution and runs EM to convergence. Every
// later refresh re-runs the E-step on the dirty posteriors only, then a
// warm EM polish from the previous optimum, so ingestion and refresh cost
// O(batch) plus the polish; see stream.go.
//
// Infer is NewModel, IngestFrom over the whole log and one
// RefreshIncremental. InferWarm does the same for a log a previous Model
// was not fitted on: it copies the previous parameters before the first
// refresh, which then derives the posteriors from them with one E-step
// instead of the vote seed, so EM converges in a handful of iterations.
// Warm starts are safe whenever the table schema and row set are unchanged
// and the answer log only grew; InferWarm falls back to a cold fit when the
// dimensions no longer match.
//
// # Determinism contract
//
// Every fold in this package runs in a fixed order — group order, and log
// order within a group: streamed refreshes are pinned BITWISE equal to
// cold rebuilds across arbitrary batch splits, which is only possible
// because no accumulation ever depends on map iteration order, the wall
// clock, or the globally seeded rand source. The directive below makes
// tcrowd-lint (detfold) reject those constructs in this package.
//
//tcrowd:deterministic
package core

import (
	"errors"
	"fmt"
	"math"

	"tcrowd/internal/ingest"
	"tcrowd/internal/optimize"
	"tcrowd/internal/stats"
	"tcrowd/internal/tabular"
)

// Mode selects which datatypes participate in inference. The constrained
// modes are the paper's TC-onlyCate / TC-onlyCont baselines (Table 7).
type Mode int

const (
	// ModeFull uses every column (T-Crowd proper).
	ModeFull Mode = iota
	// ModeOnlyCategorical ignores continuous columns (TC-onlyCate).
	ModeOnlyCategorical
	// ModeOnlyContinuous ignores categorical columns (TC-onlyCont).
	ModeOnlyContinuous
)

// Options configures Infer. The zero value gives the paper's defaults.
type Options struct {
	// Eps is the quality window of Eq. 2, in standardized units
	// (default 0.5).
	Eps float64
	// MaxIter bounds EM iterations (default 50; the paper observes
	// convergence within ~20).
	MaxIter int
	// Tol is the convergence threshold on the maximum absolute parameter
	// change between iterations (default 1e-5, as in Sec. 4.3).
	Tol float64
	// MStepIter bounds gradient-ascent steps per M-step (default 20).
	MStepIter int
	// Mode restricts the datatypes used (default ModeFull).
	Mode Mode
	// FixDifficulty freezes alpha_i = beta_j = 1, reducing the model to
	// worker-only quality. Used by the difficulty ablation.
	FixDifficulty bool
	// TrackObjective records the ELBO after every EM iteration
	// (regenerates Fig. 12a).
	TrackObjective bool
	// Parallelism shards the E-step over cells and the M-step
	// objective/gradient over groups on a persistent goroutine pool. The
	// paper lists parallel truth inference as future work (Sec. 7);
	// results are identical up to floating-point summation order.
	//
	//	 0  auto: parallelise at GOMAXPROCS once the decoded answer count
	//	    reaches AutoParallelMinAnswers, run serial below it — servers
	//	    no longer run big logs serial by default;
	//	 1  explicitly serial (the opt-out);
	//	>1  explicit worker count, capped at GOMAXPROCS.
	Parallelism int

	// MStepGradTol overrides the M-step gradient-norm stopping tolerance
	// (default 1e-7). Values below 1e-10 also tighten the optimizer's
	// relative objective-improvement cutoff to match (never the reverse:
	// loosening MStepGradTol keeps the default objective cutoff).
	// Equivalence tests tighten it together with Tol so two EM runs
	// converging to the same optimum agree to more digits than the
	// optimizer's default precision.
	MStepGradTol float64

	// refMStep, when set, replaces the fused M-step. The
	// numerical-equivalence tests install unfused reference
	// implementations (separate objective and gradient passes, fresh
	// allocations) to prove the fused engine computes the same fit.
	refMStep func(*Model)
}

// Fixed model constants.
const (
	// initPhi is the variance a worker starts at.
	initPhi = 0.2
	// phiPriorA and phiPriorB parameterise a weak inverse-gamma prior on
	// each phi_u, with its mode at initPhi. The paper's pure MLE
	// degenerates on sparse workers (phi -> 0 for a worker whose few
	// answers all match the posterior); the weak prior is the standard
	// MAP-EM stabilisation and washes out once a worker has tens of
	// answers.
	phiPriorA, phiPriorB = 1.0, 0.4
	// diffPriorSigma is the std of the N(0, sigma^2) shrinkage prior on
	// ln(alpha_i) and ln(beta_j), keeping difficulties modest
	// multiplicative modulations around 1 and anchoring the scale of the
	// otherwise scale-ambiguous product alpha*beta*phi.
	diffPriorSigma = 0.5
)

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 0.5
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-5
	}
	if o.MStepIter <= 0 {
		o.MStepIter = 20
	}
	return o
}

// Model is the fitted state of T-Crowd truth inference: per-cell posterior
// truth distributions plus the learned difficulties and worker variances.
// It also serves the task-assignment layer, which needs posteriors,
// per-cell worker qualities and cheap single-cell updates.
type Model struct {
	Table *tabular.Table
	// Log is the source log IngestFrom streams answers from: the log
	// Infer fitted on. A model from NewModel has none until its owner
	// sets it; without one, answers enter through Ingest.
	Log  *tabular.AnswerLog
	Opts Options

	// Alpha[i], Beta[j] are row/column difficulties; Phi[k] is the
	// variance of the k-th worker in WorkerIDs order.
	Alpha, Beta []float64
	Phi         []float64
	WorkerIDs   []tabular.WorkerID
	workerIdx   map[tabular.WorkerID]int

	// ColMean/ColStd are the per-column standardisation constants
	// (answer mean and std; std==1, mean==0 for categorical columns).
	ColMean, ColStd []float64

	// CatPost[i][j] is the posterior label distribution of a categorical
	// cell (nil when not applicable or unanswered). The distributions of
	// all cells share one backing arena and are updated in place by the
	// E-step.
	CatPost [][][]float64
	// ContMu/ContVar hold the standardized posterior N(mu, var) of
	// continuous cells (valid where Answered).
	ContMu, ContVar [][]float64
	// Answered marks cells with at least one usable answer.
	Answered [][]bool

	// ObjTrace is the ELBO per EM iteration when TrackObjective is set.
	ObjTrace []float64
	// Iterations is the number of EM iterations performed.
	Iterations int
	// Converged reports whether the parameter-change tolerance fired.
	Converged bool

	// ilog is the streaming sufficient-statistics store: one group per
	// (cell, worker, label), sorted so a cell's groups are contiguous and
	// groups sharing a (row, column, worker) variance triple are adjacent
	// (enabling transcendental memoisation). It is the model's only copy
	// of the answers, and grows in place via Ingest.
	ilog *ingest.Log
	// colAcc[j] is the running Welford accumulator of column j's raw
	// numeric answers — the same left fold stats.MeanVariance performs,
	// kept as state so streaming batches extend the standardisation
	// constants in O(batch), bit-identically to a cold recompute over the
	// grown log.
	colAcc []colAcc
	// decoded counts the source-log entries consumed so far (including
	// answers dropped by the mode filter); IngestFrom resumes there.
	decoded int
	// lnL1[j] caches ln(numLabels-1) for categorical columns.
	lnL1 []float64
	// wgt[k] is the likelihood multiplier of the k-th worker in WorkerIDs
	// order; nil means every worker has weight 1 (the common case keeps
	// the hot loops' memoised fast paths untouched). See SetWorkerWeights.
	wgt []float64
	// medianPhi caches MedianPhi across hot assignment loops.
	medianPhi float64
	// pendingPolish counts answers ingested since the last full EM polish;
	// RefreshIncremental defers the polish until it crosses polishBacklog.
	pendingPolish int
	// fitted is set by the first RefreshIncremental over usable answers,
	// which seeds every posterior before EM: by one E-step when warmSeed
	// marks parameters InferWarm copied from a previous fit, else from the
	// empirical answer distribution.
	fitted, warmSeed bool
	// scr holds every reusable hot-path buffer; see scratch.
	scr scratch
}

// scratch is the per-model arena of hot-path buffers, sized on first use
// and reused across EM iterations so the steady-state engine allocates
// nothing.
type scratch struct {
	// Per-group M-step constant, refreshed once per mStep while the
	// posteriors are frozen: the total posterior mass on the answered
	// label (categorical) or the total squared residual plus posterior
	// variance (continuous).
	gc []float64
	// theta packing and its (alpha, beta, phi) views.
	theta, alpha, beta, phi []float64
	// Gradient sinks: a FixDifficulty M-step accumulates its discarded
	// alpha/beta gradients here.
	ga, gb []float64
	// EM convergence snapshots.
	prevParams, curParams []float64
	// Fused optimizer state.
	work optimize.Workspace
	fg   optimize.FuncGrad
	fv   optimize.Func
	// dec is the reusable decode buffer of Ingest (batch staging).
	dec []ingest.Answer
	// refreshCells snapshots the dirty-cell set per RefreshIncremental and
	// backs the RefreshStats.Cells view handed to callers.
	refreshCells []int
	// Per-shard parallel state (index = shard id): M-step partial values
	// and partial gradients.
	shardVal []float64
	shardGA  [][]float64
	shardGB  [][]float64
	shardGP  [][]float64
}

// ensureShards sizes the per-shard scratch for w parallel workers. The phi
// dimension can grow between refreshes (streaming batches may introduce new
// workers), so existing shards are re-sized when stale.
func (m *Model) ensureShards(w int) {
	scr := &m.scr
	for len(scr.shardGA) < w {
		scr.shardGA = append(scr.shardGA, make([]float64, len(m.Alpha)))
		scr.shardGB = append(scr.shardGB, make([]float64, len(m.Beta)))
		scr.shardGP = append(scr.shardGP, make([]float64, len(m.Phi)))
	}
	for s := range scr.shardGP {
		if len(scr.shardGP[s]) != len(m.Phi) {
			scr.shardGP[s] = make([]float64, len(m.Phi))
		}
	}
	if cap(scr.shardVal) < w {
		scr.shardVal = make([]float64, w)
	}
	scr.shardVal = scr.shardVal[:w]
}

// ErrNoAnswers is returned when the log has no usable answers for the
// requested mode.
var ErrNoAnswers = errors.New("core: no usable answers")

// Infer runs T-Crowd truth inference (Algorithm 1) and returns the fitted
// model, whose Log is log.
func Infer(tbl *tabular.Table, log *tabular.AnswerLog, opts Options) (*Model, error) {
	return InferWarm(nil, tbl, log, opts)
}

// InferWarm runs truth inference seeded from a previously fitted model —
// the rebuild path for a log the previous model was not fitted on: the EM
// restarts at the previous optimum (parameters, and posteriors derived
// from them by one E-step) and only re-runs to convergence from there,
// typically in a handful of iterations instead of a full cold start.
//
// Warm starts are valid while the table's dimensions and schema are
// unchanged and the log has only accumulated answers; when prev is nil or
// its dimensions no longer match, InferWarm is a cold Infer. Unless the
// caller overrides them, warm runs cap EM at WarmMaxIter iterations and
// keep the cold convergence tolerance, so the result matches a cold fit
// to within the EM tolerance.
func InferWarm(prev *Model, tbl *tabular.Table, log *tabular.AnswerLog, opts Options) (*Model, error) {
	warm := CanWarmStart(prev, tbl)
	if warm && opts.MaxIter <= 0 {
		opts.MaxIter = WarmMaxIter
	}
	m, err := NewModel(tbl, opts)
	if err != nil {
		return nil, err
	}
	m.Log = log
	if _, err := m.IngestFrom(log); err != nil {
		return nil, err
	}
	if m.NumAnswersUsed() == 0 {
		return nil, ErrNoAnswers
	}
	if warm {
		if !m.Opts.FixDifficulty {
			copy(m.Alpha, prev.Alpha)
			copy(m.Beta, prev.Beta)
		}
		for k, u := range m.WorkerIDs {
			if pk, ok := prev.workerIdx[u]; ok && prev.Phi[pk] > 0 {
				m.Phi[k] = stats.Clamp(prev.Phi[pk], minS, maxS)
			}
		}
		m.warmSeed = true
	}
	m.RefreshIncremental(0)
	return m, nil
}

// CanWarmStart reports whether prev is a usable warm seed for inference
// over tbl — the single warm-validity predicate shared by InferWarm and
// callers that adjust their iteration budgets based on it (so the two
// decisions cannot drift apart).
func CanWarmStart(prev *Model, tbl *tabular.Table) bool {
	return prev != nil &&
		len(prev.Alpha) == tbl.NumRows() && len(prev.Beta) == tbl.NumCols()
}

// WarmMaxIter is the default EM iteration cap of warm-started runs: a warm
// start lands next to the previous optimum, so a short run reconverges.
const WarmMaxIter = 8

// NewModel returns an empty model of tbl: no answers and no workers, unit
// difficulties, column constants at mean 0 and std 1. Answers enter
// through Ingest (or IngestFrom once Log is set), and the first
// RefreshIncremental fits them.
func NewModel(tbl *tabular.Table, opts Options) (*Model, error) {
	if err := tbl.Schema.Validate(); err != nil {
		return nil, err
	}
	n, mm := tbl.NumRows(), tbl.NumCols()
	m := &Model{
		Table:     tbl,
		Opts:      opts.withDefaults(),
		Alpha:     ones(n),
		Beta:      ones(mm),
		ColMean:   make([]float64, mm),
		ColStd:    ones(mm),
		CatPost:   make([][][]float64, n),
		ContMu:    make([][]float64, n),
		ContVar:   make([][]float64, n),
		Answered:  make([][]bool, n),
		lnL1:      make([]float64, mm),
		workerIdx: make(map[tabular.WorkerID]int),
		colAcc:    make([]colAcc, mm),
		ilog:      ingest.NewLog(n, mm),
	}
	// Row views share flat backing arrays: one allocation per field
	// instead of one per row.
	postRows := make([][]float64, n*mm)
	muFlat := make([]float64, n*mm)
	varFlat := make([]float64, n*mm)
	ansFlat := make([]bool, n*mm)
	for i := 0; i < n; i++ {
		m.CatPost[i] = postRows[i*mm : (i+1)*mm : (i+1)*mm]
		m.ContMu[i] = muFlat[i*mm : (i+1)*mm : (i+1)*mm]
		m.ContVar[i] = varFlat[i*mm : (i+1)*mm : (i+1)*mm]
		m.Answered[i] = ansFlat[i*mm : (i+1)*mm : (i+1)*mm]
	}
	for j := 0; j < mm; j++ {
		if col := tbl.Schema.Columns[j]; col.Type == tabular.Categorical {
			m.lnL1[j] = math.Log(float64(col.NumLabels() - 1))
		}
	}
	return m, nil
}

// checkAnswer validates one raw answer against the table: cell bounds plus
// the schema's own value check (kind AND label range — an out-of-range
// label would otherwise index out of the posterior arena much later, after
// Ingest already merged it). Validation is separate from decoding so
// Ingest can reject a bad batch before mutating any model state.
func (m *Model) checkAnswer(a tabular.Answer) error {
	if a.Cell.Row < 0 || a.Cell.Row >= m.Table.NumRows() ||
		a.Cell.Col < 0 || a.Cell.Col >= m.Table.NumCols() {
		return fmt.Errorf("core: answer cell %v outside table", a.Cell)
	}
	if err := a.Value.CheckAgainst(m.Table.Schema.Columns[a.Cell.Col]); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// MaxAnswerMagnitude bounds the numeric answers the model uses: under it
// a column's running sum of squared deviations stays finite for any answer
// count, where one answer near 1.3e154 made the variance +Inf and every
// estimate in the column NaN. The platform refuses larger answers at
// submit; an answer a log acknowledged before that check stays in the log,
// and the model skips it like an answer the mode filter drops.
const MaxAnswerMagnitude = 1e100

// usableNumber reports whether x lies within ±MaxAnswerMagnitude (NaN
// does not).
func usableNumber(x float64) bool { return math.Abs(x) <= MaxAnswerMagnitude }

// decodeAnswer resolves one checked raw answer: mode filter applied, worker
// index assigned (first-seen workers are appended to WorkerIDs; Ingest
// grows their parameters once per batch). Continuous values stay raw: the
// group store keeps raw moments and the EM loops standardize them with the
// current column constants. use is false when the mode filter drops the
// answer or its number is beyond MaxAnswerMagnitude.
func (m *Model) decodeAnswer(a tabular.Answer) (oa ingest.Answer, use bool, err error) {
	if err := m.checkAnswer(a); err != nil {
		return ingest.Answer{}, false, err
	}
	col := m.Table.Schema.Columns[a.Cell.Col]
	isCat := col.Type == tabular.Categorical
	if (isCat && m.Opts.Mode == ModeOnlyContinuous) ||
		(!isCat && (m.Opts.Mode == ModeOnlyCategorical || !usableNumber(a.Value.X))) {
		return ingest.Answer{}, false, nil
	}
	k, ok := m.workerIdx[a.Worker]
	if !ok {
		k = len(m.WorkerIDs)
		m.workerIdx[a.Worker] = k
		m.WorkerIDs = append(m.WorkerIDs, a.Worker)
	}
	oa = ingest.Answer{W: k, I: a.Cell.Row, J: a.Cell.Col, IsCat: isCat}
	if isCat {
		oa.Label = a.Value.L
	} else {
		oa.X = a.Value.X
	}
	return oa, true, nil
}

// SetWorkerWeights installs per-worker likelihood multipliers on a fitted
// model: weight 1 is the unweighted default, 0 removes the worker's
// evidence entirely, values between scale it proportionally. Workers absent
// from the map (and workers that arrive in later batches) get weight 1;
// negative weights clamp to 0. Passing nil (or an all-ones map) restores
// the unweighted fast path. The weights take effect at the next E-/M-step,
// so callers should follow with a refresh (e.g. RefreshIncremental) before
// reading posteriors.
func (m *Model) SetWorkerWeights(w map[tabular.WorkerID]float64) {
	if len(w) == 0 {
		m.wgt = nil
		return
	}
	if cap(m.wgt) < len(m.WorkerIDs) {
		m.wgt = make([]float64, len(m.WorkerIDs))
	}
	m.wgt = m.wgt[:len(m.WorkerIDs)]
	allOne := true
	for k, u := range m.WorkerIDs {
		wt, ok := w[u]
		if !ok {
			wt = 1
		}
		if wt < 0 {
			wt = 0
		}
		if wt != 1 {
			allOne = false
		}
		m.wgt[k] = wt
	}
	if allOne {
		// Bitwise-identical to the nil fast path anyway; keep it nil so
		// the invariant "wgt == nil means unweighted" holds for tests.
		m.wgt = nil
	}
}

// WorkerWeight returns worker u's current likelihood multiplier (1 when
// unweighted or unknown).
func (m *Model) WorkerWeight(u tabular.WorkerID) float64 {
	if m.wgt == nil {
		return 1
	}
	if k, ok := m.workerIdx[u]; ok {
		return m.wgt[k]
	}
	return 1
}

// weightOf returns the likelihood multiplier of worker index k. The nil
// branch keeps the unweighted default alloc-free; multiplying by the
// returned 1.0 is an IEEE identity, so weighted code paths stay bitwise
// equal to their pre-weight forms when no weights are set.
func (m *Model) weightOf(k int) float64 {
	if m.wgt == nil {
		return 1
	}
	return m.wgt[k]
}

// warmStart seeds posteriors from the empirical answer distribution
// (equal-weight vote / mean), the conventional EM initialisation. Vote
// counts accumulate directly in the posterior arena (categorical) and the
// ContMu/ContVar fields (continuous) — no temporaries.
func (m *Model) warmStart() {
	n, mm := m.Table.NumRows(), m.Table.NumCols()
	for idx := range m.ilog.Groups {
		g := &m.ilog.Groups[idx]
		if g.IsCat {
			m.CatPost[g.I][g.J][g.Label] += float64(g.Count)
		} else {
			sumZ, _ := m.groupZ(g)
			m.ContMu[g.I][g.J] += sumZ              // sum of answers
			m.ContVar[g.I][g.J] += float64(g.Count) // answer count
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < mm; j++ {
			if !m.Answered[i][j] {
				continue
			}
			if post := m.CatPost[i][j]; post != nil {
				// Add-one smoothing keeps every label alive for the first
				// M-step.
				total := 0.0
				for z := range post {
					post[z] += 0.5
					total += post[z]
				}
				for z := range post {
					post[z] /= total
				}
			} else if cnt := m.ContVar[i][j]; cnt > 0 {
				m.ContMu[i][j] /= cnt
				m.ContVar[i][j] = 1 / cnt
			}
		}
	}
}

// emLoop alternates M- and E-steps (worker quality and cell difficulty,
// then truth posteriors) for at most maxIter iterations or until the
// parameter-change tolerance fires — Algorithm 1, run by every
// RefreshIncremental.
func (m *Model) emLoop(maxIter int) {
	d := len(m.Alpha) + len(m.Beta) + len(m.Phi)
	if cap(m.scr.prevParams) < d {
		m.scr.prevParams = make([]float64, d)
		m.scr.curParams = make([]float64, d)
	}
	prev := m.paramSnapshot(m.scr.prevParams[:d])
	cur := m.scr.curParams[:d]
	m.Converged = false
	for it := 0; it < maxIter; it++ {
		m.Iterations = it + 1
		m.mStep()
		m.eStep()
		if m.Opts.TrackObjective {
			m.ObjTrace = append(m.ObjTrace, m.ELBO())
		}
		cur = m.paramSnapshot(cur)
		if maxDelta(prev, cur) < m.Opts.Tol {
			m.Converged = true
			break
		}
		prev, cur = cur, prev
	}
}

// paramSnapshot writes the concatenated (alpha, beta, phi) vector into dst.
func (m *Model) paramSnapshot(dst []float64) []float64 {
	dst = dst[:0]
	dst = append(dst, m.Alpha...)
	dst = append(dst, m.Beta...)
	dst = append(dst, m.Phi...)
	return dst
}

func maxDelta(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
