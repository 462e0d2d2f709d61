package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func quadratic(center []float64) (Func, GradFunc) {
	f := func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
	g := func(x, grad []float64) {
		for i := range x {
			grad[i] = 2 * (x[i] - center[i])
		}
	}
	return f, g
}

func TestMinimizeQuadratic(t *testing.T) {
	center := []float64{3, -2, 0.5}
	f, g := quadratic(center)
	res := Minimize(f, g, []float64{0, 0, 0}, Options{})
	if !res.Converged {
		t.Fatal("quadratic should converge")
	}
	for i := range center {
		if math.Abs(res.X[i]-center[i]) > 1e-4 {
			t.Fatalf("x[%d]=%v want %v", i, res.X[i], center[i])
		}
	}
	if res.F > 1e-8 {
		t.Fatalf("objective %v not near 0", res.F)
	}
}

func TestMinimizeDoesNotMutateStart(t *testing.T) {
	f, g := quadratic([]float64{1, 1})
	x0 := []float64{5, 5}
	Minimize(f, g, x0, Options{})
	if x0[0] != 5 || x0[1] != 5 {
		t.Fatal("start vector mutated")
	}
}

func TestMinimizeRosenbrockDescends(t *testing.T) {
	// Rosenbrock is hard for plain GD; we only require strict descent and
	// approach toward the valley within a generous budget.
	f := func(x []float64) float64 {
		a, b := x[0], x[1]
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	}
	g := func(x, grad []float64) {
		a, b := x[0], x[1]
		grad[0] = -2*(1-a) - 400*a*(b-a*a)
		grad[1] = 200 * (b - a*a)
	}
	start := []float64{-1.2, 1}
	res := Minimize(f, g, start, Options{MaxIter: 5000, GradTol: 1e-8})
	if res.F >= f(start) {
		t.Fatalf("no descent: %v -> %v", f(start), res.F)
	}
	if res.F > 0.5 {
		t.Fatalf("insufficient progress on Rosenbrock: f=%v", res.F)
	}
}

func TestMinimizeNaNObjective(t *testing.T) {
	f := func(x []float64) float64 { return math.NaN() }
	g := func(x, grad []float64) { grad[0] = 1 }
	res := Minimize(f, g, []float64{1}, Options{})
	if res.Iters != 0 {
		t.Fatal("NaN start should bail out immediately")
	}
}

func TestMinimizeSkipsNaNRegions(t *testing.T) {
	// f is NaN for x < 0; descent from x=4 toward 0 must backtrack instead
	// of stepping into the NaN region.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 0.1) * (x[0] - 0.1)
	}
	g := func(x, grad []float64) { grad[0] = 2 * (x[0] - 0.1) }
	res := Minimize(f, g, []float64{4}, Options{MaxIter: 500})
	if math.Abs(res.X[0]-0.1) > 1e-3 {
		t.Fatalf("got %v want 0.1", res.X[0])
	}
}

func TestNumericalGradientMatchesAnalytic(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Sin(x[0])*math.Exp(x[1]) + x[0]*x[1]
	}
	x := []float64{0.7, -0.3}
	want := []float64{
		math.Cos(x[0])*math.Exp(x[1]) + x[1],
		math.Sin(x[0])*math.Exp(x[1]) + x[0],
	}
	got := make([]float64, 2)
	if err := NumericalGradient(f, x, 1e-6, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("grad[%d]=%v want %v", i, got[i], want[i])
		}
	}
	if err := NumericalGradient(f, x, 0, make([]float64, 1)); err != ErrDimension {
		t.Fatal("dimension mismatch not detected")
	}
}

func TestPositiveVecRoundTrip(t *testing.T) {
	pv := DefaultPositiveVec()
	p := []float64{1e-6, 0.5, 1, 42, 1e6}
	l := pv.ToLog(p, nil)
	back := pv.FromLog(l, nil)
	for i := range p {
		if math.Abs(back[i]-p[i])/p[i] > 1e-12 {
			t.Fatalf("round trip p[%d]: %v -> %v", i, p[i], back[i])
		}
	}
	// Non-positive input clamps to the floor instead of producing -Inf.
	l2 := pv.ToLog([]float64{0, -3}, nil)
	if l2[0] != pv.MinLog || l2[1] != pv.MinLog {
		t.Fatal("non-positive values must clamp")
	}
	// Out-of-range log clamps on the way back.
	if pv.FromLog([]float64{1e9}, nil)[0] != math.Exp(pv.MaxLog) {
		t.Fatal("FromLog must clamp")
	}
}

func TestQuickMinimizeNeverIncreasesQuadratic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	f := func(c0, c1, s0, s1 float64) bool {
		clampf := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 50)
		}
		center := []float64{clampf(c0), clampf(c1)}
		start := []float64{clampf(s0), clampf(s1)}
		obj, grad := quadratic(center)
		res := Minimize(obj, grad, start, Options{MaxIter: 300})
		return res.F <= obj(start)+1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLogSpacePositivity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	pv := DefaultPositiveVec()
	f := func(raw []float64) bool {
		out := pv.FromLog(raw, nil)
		for _, v := range out {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
