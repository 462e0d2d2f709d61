// Package optimize implements the first-order optimisation routines used by
// T-Crowd's M-step ("we apply gradient descent to find the values of alpha,
// beta and phi that locally maximize Q", Sec. 4.3 of the paper) and by the
// GLAD baseline.
//
// The package provides plain gradient descent with Armijo backtracking line
// search, a numerical differentiator used to cross-check analytic gradients
// in tests, and a log-space reparameterisation helper that keeps positive
// parameters (variances, difficulties) positive without projection.
package optimize

import (
	"errors"
	"math"
)

// ErrDimension is returned when a gradient or start vector has the wrong
// length.
var ErrDimension = errors.New("optimize: dimension mismatch")

// Func is an objective to be minimised.
type Func func(x []float64) float64

// GradFunc writes the gradient of the objective at x into grad.
type GradFunc func(x, grad []float64)

// FuncGrad evaluates the objective at x AND writes its gradient into grad,
// returning the objective value. Fusing the two lets an implementation make
// a single pass over its data and share expensive subexpressions (T-Crowd's
// M-step shares the erf/log work of the quality model between the value and
// the gradient), which is why MinimizeFused exists alongside Minimize.
type FuncGrad func(x, grad []float64) float64

// Options controls Minimize.
type Options struct {
	// MaxIter bounds the number of outer gradient steps. Default 200.
	MaxIter int
	// GradTol stops when the max-norm of the gradient falls below it.
	// Default 1e-6.
	GradTol float64
	// FuncTol stops when the relative objective improvement falls below
	// it. Default 1e-10.
	FuncTol float64
	// InitStep is the first trial step of each backtracking search.
	// Default 1.0.
	InitStep float64
	// AdaptiveStep enables line-search step memory: each iteration's
	// first trial starts at twice the previously accepted step (capped at
	// InitStep) instead of always at InitStep. When the natural step is
	// far below InitStep this removes nearly all backtracking retrials —
	// the dominant cost of objectives with expensive evaluations. Off by
	// default to preserve the exact iterate sequence of existing callers.
	AdaptiveStep bool
	// Work, when non-nil, supplies reusable buffers so MinimizeFused runs
	// allocation-free across repeated calls (one workspace per caller; not
	// safe for concurrent use). Result.X then aliases workspace memory and
	// is only valid until the workspace's next use.
	Work *Workspace
}

// Workspace holds the scratch vectors of a MinimizeFused run so hot callers
// (EM loops re-minimising every iteration) avoid per-call allocations.
type Workspace struct {
	x, g, trial, gTrial []float64
}

// ensure sizes the workspace for an n-dimensional problem.
func (w *Workspace) ensure(n int) {
	if cap(w.x) < n {
		w.x = make([]float64, n)
		w.g = make([]float64, n)
		w.trial = make([]float64, n)
		w.gTrial = make([]float64, n)
	}
	w.x = w.x[:n]
	w.g = w.g[:n]
	w.trial = w.trial[:n]
	w.gTrial = w.gTrial[:n]
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.FuncTol <= 0 {
		o.FuncTol = 1e-10
	}
	if o.InitStep <= 0 {
		o.InitStep = 1.0
	}
	return o
}

// The backtracking line search's constants.
const (
	// backtrack is the multiplicative step decay.
	backtrack float64 = 0.5
	// armijo is the sufficient-decrease coefficient.
	armijo float64 = 1e-4
	// maxBacktracks bounds the inner line search.
	maxBacktracks = 40
)

// Result reports the outcome of a minimisation.
type Result struct {
	X         []float64 // minimiser found
	F         float64   // objective at X
	Iters     int       // outer iterations performed
	Converged bool      // true if a tolerance fired before MaxIter
}

// Minimize runs gradient descent with Armijo backtracking from x0 and
// returns the best point found. f must be finite at x0. The input slice is
// not modified.
func Minimize(f Func, grad GradFunc, x0 []float64, opts Options) Result {
	o := opts.withDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	g := make([]float64, n)
	trial := make([]float64, n)

	fx := f(x)
	res := Result{X: x, F: fx}
	if math.IsNaN(fx) || math.IsInf(fx, 0) {
		return res
	}

	lastStep := o.InitStep
	for it := 0; it < o.MaxIter; it++ {
		res.Iters = it + 1
		grad(x, g)
		gnorm := maxNorm(g)
		if gnorm < o.GradTol {
			res.Converged = true
			break
		}
		g2 := dot(g, g)

		step := o.InitStep
		if o.AdaptiveStep && it > 0 {
			step = math.Min(o.InitStep, 2*lastStep)
		}
		improved := false
		for bt := 0; bt < maxBacktracks; bt++ {
			for i := range x {
				trial[i] = x[i] - step*g[i]
			}
			ft := f(trial)
			if !math.IsNaN(ft) && !math.IsInf(ft, 0) && ft <= fx-armijo*step*g2 {
				copy(x, trial)
				lastStep = step
				if relImprovement(fx, ft) < o.FuncTol {
					fx = ft
					res.Converged = true
					improved = true
					break
				}
				fx = ft
				improved = true
				break
			}
			step *= backtrack
		}
		if !improved || res.Converged {
			if !improved {
				// Line search stalled: we are at numerical precision.
				res.Converged = true
			}
			break
		}
	}
	res.F = fx
	res.X = x
	return res
}

// MinimizeFused runs the same Armijo backtracking descent as Minimize but
// built around a fused objective+gradient callback. The first line-search
// trial of each iteration — accepted in the vast majority of steps — is
// evaluated fused, so an accepting iteration makes ONE pass over the data
// instead of Minimize's value pass plus a gradient pass at the next
// iteration. Backtracking retrials use the cheap value-only f (when
// non-nil); if such a trial is accepted, the gradient is recovered by one
// fused call at the start of the next iteration, and a stalled search
// (every trial rejected) never pays for gradients it discards.
//
// The step-acceptance decisions are identical to Minimize's whenever
// f(x) == fg(x, ·) pointwise and both are deterministic: the two routines
// then return the same iterates, objective values, and iteration counts.
//
// With Options.Work set the routine performs no allocations; Result.X then
// aliases the workspace and is only valid until its next use.
func MinimizeFused(fg FuncGrad, f Func, x0 []float64, opts Options) Result {
	o := opts.withDefaults()
	n := len(x0)
	w := o.Work
	if w == nil {
		w = &Workspace{}
	}
	w.ensure(n)
	x, g, trial, gTrial := w.x, w.g, w.trial, w.gTrial
	copy(x, x0)

	fx := fg(x, g)
	gradValid := true
	res := Result{X: x, F: fx}
	if math.IsNaN(fx) || math.IsInf(fx, 0) {
		return res
	}

	lastStep := o.InitStep
	for it := 0; it < o.MaxIter; it++ {
		res.Iters = it + 1
		if !gradValid {
			// The previous step was accepted from a value-only trial;
			// one fused call recovers the gradient (the value matches fx).
			fg(x, g)
			gradValid = true
		}
		gnorm := maxNorm(g)
		if gnorm < o.GradTol {
			res.Converged = true
			break
		}
		g2 := dot(g, g)

		step := o.InitStep
		if o.AdaptiveStep && it > 0 {
			step = math.Min(o.InitStep, 2*lastStep)
		}
		improved := false
		for bt := 0; bt < maxBacktracks; bt++ {
			for i := range x {
				trial[i] = x[i] - step*g[i]
			}
			fused := bt == 0 || f == nil
			var ft float64
			if fused {
				ft = fg(trial, gTrial)
			} else {
				ft = f(trial)
			}
			if !math.IsNaN(ft) && !math.IsInf(ft, 0) && ft <= fx-armijo*step*g2 {
				x, trial = trial, x
				lastStep = step
				if fused {
					g, gTrial = gTrial, g
				} else {
					gradValid = false
				}
				if relImprovement(fx, ft) < o.FuncTol {
					fx = ft
					res.Converged = true
					improved = true
					break
				}
				fx = ft
				improved = true
				break
			}
			step *= backtrack
		}
		if !improved || res.Converged {
			if !improved {
				// Line search stalled: we are at numerical precision.
				res.Converged = true
			}
			break
		}
	}
	w.x, w.g, w.trial, w.gTrial = x, g, trial, gTrial
	res.F = fx
	res.X = x
	return res
}

// NumericalGradient writes the central-difference gradient of f at x into
// grad, using per-coordinate step h*(1+|x_i|). It is the reference
// implementation the analytic gradients are verified against.
func NumericalGradient(f Func, x []float64, h float64, grad []float64) error {
	if len(grad) != len(x) {
		return ErrDimension
	}
	if h <= 0 {
		h = 1e-6
	}
	xx := append([]float64(nil), x...)
	for i := range x {
		hi := h * (1 + math.Abs(x[i]))
		xx[i] = x[i] + hi
		fp := f(xx)
		xx[i] = x[i] - hi
		fm := f(xx)
		xx[i] = x[i]
		grad[i] = (fp - fm) / (2 * hi)
	}
	return nil
}

// PositiveVec maps between a positive parameter vector and its log-space
// representation, so unconstrained descent keeps variances/difficulties
// strictly positive. Bounds guard against numerical blow-up.
type PositiveVec struct {
	// MinLog and MaxLog clamp the log-space coordinates. Defaults span
	// roughly [3e-9, 3e8].
	MinLog, MaxLog float64
}

// DefaultPositiveVec uses log-bounds [-19.5, 19.5].
func DefaultPositiveVec() PositiveVec { return PositiveVec{MinLog: -19.5, MaxLog: 19.5} }

// ToLog writes ln(p) (clamped) into dst and returns it; dst may be nil.
func (pv PositiveVec) ToLog(p, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(p))
	}
	for i, v := range p {
		if v <= 0 {
			dst[i] = pv.MinLog
			continue
		}
		l := math.Log(v)
		if l < pv.MinLog {
			l = pv.MinLog
		} else if l > pv.MaxLog {
			l = pv.MaxLog
		}
		dst[i] = l
	}
	return dst
}

// FromLog writes exp(l) into dst and returns it; dst may be nil.
func (pv PositiveVec) FromLog(l, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(l))
	}
	for i, v := range l {
		if v < pv.MinLog {
			v = pv.MinLog
		} else if v > pv.MaxLog {
			v = pv.MaxLog
		}
		dst[i] = math.Exp(v)
	}
	return dst
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func maxNorm(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

func relImprovement(old, new float64) float64 {
	return math.Abs(old-new) / (math.Abs(old) + 1)
}
