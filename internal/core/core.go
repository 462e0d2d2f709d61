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
// # Warm-started incremental inference
//
// Online serving re-infers after every small answer batch, so cold-start
// cost dominates the refresh latency. InferWarm seeds a new fit from a
// previous Model: parameters start at the previous optimum (Options.Warm)
// and the posteriors are refreshed with a single E-step instead of the
// empirical vote seed, so EM typically converges in a handful of cheap
// iterations. Warm starts are safe whenever the table schema and row set
// are unchanged and the answer log only grew; after structural changes
// (rows added/removed, labels redefined) or bulk log rewrites, run a full
// cold Infer instead — InferWarm falls back to cold automatically when
// the dimensions no longer match.
//
// # Streaming ingestion
//
// InferWarm still rebuilds the group store (decode + sort + fold) from the
// raw log on every call — O(log) work per refresh. The streaming path
// removes that too: a fitted Model can absorb answer batches in place via
// Ingest/IngestFrom (the internal/ingest store folds the batch into its
// groups and tracks dirty cells) and then RefreshIncremental re-runs the
// E-step on the dirty posteriors only before a short warm EM polish.
// Ingestion cost is O(batch), not O(log); see stream.go.
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
	// InitPhi is the initial worker variance (default 0.2).
	InitPhi float64
	// PhiPriorA/PhiPriorB parameterise a weak inverse-gamma prior on each
	// phi_u (defaults 1.0 and 0.4, putting the prior mode at 0.2). The
	// paper's pure MLE degenerates on sparse workers (phi -> 0 for a
	// worker whose few answers all match the posterior); the weak prior is
	// the standard MAP-EM stabilisation and washes out once a worker has
	// tens of answers.
	PhiPriorA, PhiPriorB float64
	// DiffPriorSigma is the std of the N(0, sigma^2) shrinkage prior on
	// ln(alpha_i) and ln(beta_j) (default 0.5), keeping difficulties
	// modest multiplicative modulations around 1 and anchoring the scale
	// of the otherwise scale-ambiguous product alpha*beta*phi.
	DiffPriorSigma float64
	// Warm seeds the parameters from a previous fit, the standard trick
	// for online re-inference after a handful of new answers: the EM
	// restarts next to its previous optimum and converges in a few
	// iterations. When set, the posteriors are seeded by an E-step from
	// the warm parameters instead of the empirical vote distribution.
	// Most callers should use InferWarm, which builds this from a
	// previous Model and picks warm-appropriate iteration caps.
	Warm *Warm
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

	// WorkerWeights seeds per-worker likelihood multipliers at fit time:
	// every answer from worker u contributes weight[u] times its usual
	// E-step evidence, M-step objective/gradient mass and ELBO term
	// (1 = full weight, 0 = the worker's answers are ignored). Workers
	// absent from the map get weight 1. The reputation layer uses this to
	// down-weight suspected spammers without rewriting the answer log; a
	// fitted model adjusts weights between refreshes via SetWorkerWeights.
	WorkerWeights map[tabular.WorkerID]float64

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

// Warm carries parameters from a previous fit for warm-started EM.
type Warm struct {
	// Alpha and Beta must match the table dimensions to be used.
	Alpha, Beta []float64
	// Phi maps workers to their previous variance; unknown workers keep
	// InitPhi.
	Phi map[tabular.WorkerID]float64
}

// WarmFromModel extracts warm-start parameters from a fitted model.
func WarmFromModel(prev *Model) *Warm {
	w := &Warm{
		Alpha: prev.Alpha,
		Beta:  prev.Beta,
		Phi:   make(map[tabular.WorkerID]float64, len(prev.WorkerIDs)),
	}
	for k, u := range prev.WorkerIDs {
		w.Phi[u] = prev.Phi[k]
	}
	return w
}

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
	if o.InitPhi <= 0 {
		o.InitPhi = 0.2
	}
	if o.PhiPriorA <= 0 {
		o.PhiPriorA = 1.0
	}
	if o.PhiPriorB <= 0 {
		o.PhiPriorB = 0.4
	}
	if o.DiffPriorSigma <= 0 {
		o.DiffPriorSigma = 0.5
	}
	return o
}

// Model is the fitted state of T-Crowd truth inference: per-cell posterior
// truth distributions plus the learned difficulties and worker variances.
// It also serves the task-assignment layer, which needs posteriors,
// per-cell worker qualities and cheap single-cell updates.
type Model struct {
	Table *tabular.Table
	// Log is the source log Infer fitted on, which IngestFrom streams
	// later answers from. A model built by InferAnswers has a nil Log and
	// keeps no answers: stream into it with Ingest.
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
	// dec is the reusable decode buffer of Ingest (batch staging);
	// colChanged is its per-column changed-constants flag set.
	dec        []ingest.Answer
	colChanged []bool
	// src holds the source-log answers IngestFrom hands to Ingest.
	src []tabular.Answer
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
	m, err := InferAnswers(tbl, log.All(), opts)
	if err != nil {
		return nil, err
	}
	m.Log = log
	return m, nil
}

// InferAnswers runs T-Crowd truth inference over answers, in order. The
// model keeps no reference to answers and has no Log.
func InferAnswers(tbl *tabular.Table, answers []tabular.Answer, opts Options) (*Model, error) {
	m, err := newModel(tbl, answers, opts)
	if err != nil {
		return nil, err
	}
	m.run()
	return m, nil
}

// InferWarm runs truth inference seeded from a previously fitted model —
// the online-serving fast path: after a small answer batch lands, the EM
// restarts at the previous optimum (parameters and posteriors) and only
// re-runs to convergence from there, typically in a handful of iterations
// instead of a full cold start.
//
// Warm starts are valid while the table's dimensions and schema are
// unchanged and the log has only accumulated answers; when prev is nil or
// its dimensions no longer match, InferWarm transparently falls back to a
// cold Infer. Unless the caller overrides them, warm runs cap EM at
// WarmMaxIter iterations and keep the cold convergence tolerance, so the
// result matches a cold fit to within the EM tolerance.
func InferWarm(prev *Model, tbl *tabular.Table, log *tabular.AnswerLog, opts Options) (*Model, error) {
	if opts.Warm == nil && CanWarmStart(prev, tbl) {
		opts.Warm = WarmFromModel(prev)
		if opts.MaxIter <= 0 {
			opts.MaxIter = WarmMaxIter
		}
	}
	return Infer(tbl, log, opts)
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

func newModel(tbl *tabular.Table, all []tabular.Answer, opts Options) (*Model, error) {
	if err := tbl.Schema.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	n, mm := tbl.NumRows(), tbl.NumCols()

	m := &Model{
		Table:     tbl,
		Opts:      o,
		Alpha:     ones(n),
		Beta:      ones(mm),
		ColMean:   make([]float64, mm),
		ColStd:    make([]float64, mm),
		CatPost:   make([][][]float64, n),
		ContMu:    make([][]float64, n),
		ContVar:   make([][]float64, n),
		Answered:  make([][]bool, n),
		lnL1:      make([]float64, mm),
		workerIdx: make(map[tabular.WorkerID]int),
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

	// Column standardisation constants from the answers, folded through
	// the per-column accumulators (kept on the model so streaming batches
	// extend the same fold).
	m.colAcc = make([]colAcc, mm)
	for _, a := range all {
		if a.Value.Kind == tabular.Number && usableNumber(a.Value.X) {
			m.colAcc[a.Cell.Col].add(a.Value.X)
		}
	}
	for j := 0; j < mm; j++ {
		m.setColConstants(j)
	}

	// Decode answers, applying the mode filter.
	dec := make([]ingest.Answer, 0, len(all))
	for _, a := range all {
		oa, use, err := m.decodeAnswer(a)
		if err != nil {
			return nil, err
		}
		if !use {
			continue
		}
		dec = append(dec, oa)
		m.Answered[a.Cell.Row][a.Cell.Col] = true
	}
	m.decoded = len(all)
	if len(dec) == 0 {
		return nil, ErrNoAnswers
	}

	// Fold the decoded answers into the group store; dec is staging only
	// and is dropped when newModel returns.
	m.ilog = ingest.NewLog(n, mm)
	m.ilog.Rebuild(dec)

	// Categorical posteriors live in one arena, assigned per answered
	// cell and updated in place ever after. (Cells first answered by a
	// later streamed batch get their own small slices — the clean arena
	// prefix is never reallocated.)
	total := 0
	for i := 0; i < n; i++ {
		for j := 0; j < mm; j++ {
			if m.Answered[i][j] && tbl.Schema.Columns[j].Type == tabular.Categorical {
				total += tbl.Schema.Columns[j].NumLabels()
			}
		}
	}
	arena := make([]float64, total)
	off := 0
	for i := 0; i < n; i++ {
		for j := 0; j < mm; j++ {
			if m.Answered[i][j] && tbl.Schema.Columns[j].Type == tabular.Categorical {
				l := tbl.Schema.Columns[j].NumLabels()
				m.CatPost[i][j] = arena[off : off+l : off+l]
				off += l
			}
		}
	}

	m.Phi = make([]float64, len(m.WorkerIDs))
	for k := range m.Phi {
		m.Phi[k] = o.InitPhi
	}
	if len(o.WorkerWeights) > 0 {
		m.SetWorkerWeights(o.WorkerWeights)
	}
	warmed := false
	if w := o.Warm; w != nil {
		if len(w.Alpha) == n && !o.FixDifficulty {
			copy(m.Alpha, w.Alpha)
		}
		if len(w.Beta) == mm && !o.FixDifficulty {
			copy(m.Beta, w.Beta)
		}
		for k, u := range m.WorkerIDs {
			if phi, ok := w.Phi[u]; ok && phi > 0 {
				m.Phi[k] = stats.Clamp(phi, minS, maxS)
			}
		}
		warmed = true
	}
	if !warmed {
		// Cold start: seed the posteriors from the empirical answer
		// distribution. Warm starts skip this — run() derives their
		// posteriors from the warm parameters with one E-step, which both
		// reflects the previous fit and folds in any new answers.
		m.warmStart()
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
// index assigned (first-seen workers are appended, with the initial
// variance when the parameter vector already exists). Continuous values
// stay raw: the group store keeps raw moments and the EM loops
// standardize them with the current column constants. use is false when
// the mode filter drops the answer or its number is beyond
// MaxAnswerMagnitude.
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
		if m.Phi != nil {
			// Streaming arrival after the cold fit sized Phi: a fresh
			// worker starts at the initial variance, like a cold start.
			m.Phi = append(m.Phi, m.Opts.InitPhi)
		}
		if m.wgt != nil {
			// New workers enter at full weight until told otherwise.
			m.wgt = append(m.wgt, 1)
		}
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

// run executes the EM loop: M-step (worker quality + cell difficulty), then
// E-step (truth posteriors), until parameters stabilise (Algorithm 1).
func (m *Model) run() {
	if m.Opts.Warm != nil {
		// Warm parameters beat vote-share posteriors: derive the
		// posteriors from them before the first M-step.
		m.eStep()
	}
	m.emLoop(m.Opts.MaxIter)
	// Freeze the median-phi cache now so concurrent readers (parallel
	// assignment scoring) never write to the model.
	m.medianPhi = m.MedianPhi()
}

// emLoop alternates M- and E-steps for at most maxIter iterations or until
// the parameter-change tolerance fires — the shared engine of the cold run
// and the streaming polish (RefreshIncremental).
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
