package assign

import (
	"math"
	"runtime"

	"tcrowd/internal/tabular"
)

// Random assigns uniformly random unanswered cells (the strategy of
// CrowdDB/Deco/Qurk per Sec. 2, and the Fig. 5 baseline).
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "Random" }

// Select implements Policy.
func (Random) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, st.Log, u)
	if len(cands) == 0 {
		return nil
	}
	st.RNG.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// Looping walks the cells in row-major round-robin order, so answer
// multiplicity stays maximally uniform regardless of content (Fig. 5's
// "Looping" heuristic). It is stateful: the cursor persists across calls.
type Looping struct {
	cursor int
}

// Name implements Policy.
func (*Looping) Name() string { return "Looping" }

// Select implements Policy.
func (lp *Looping) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	tbl := st.Model.Table
	total := tbl.NumCells()
	if total == 0 {
		return nil
	}
	var out []tabular.Cell
	for probed := 0; probed < total && len(out) < k; probed++ {
		idx := (lp.cursor + probed) % total
		c := tabular.Cell{Row: idx / tbl.NumCols(), Col: idx % tbl.NumCols()}
		if !st.Log.HasAnswered(u, c) {
			out = append(out, c)
		}
	}
	lp.cursor = (lp.cursor + len(out)) % total
	return out
}

// Entropy greedily picks the cells with the highest raw entropy: Shannon
// entropy for categorical cells, differential entropy in *natural units*
// for continuous cells. As Sec. 5.1 argues, the two are not commensurable
// — a continuous column spanning hundreds of units carries ln(std) extra
// nats — so this heuristic floods the continuous tasks first, dropping
// MNAD quickly while the Error Rate stalls (Fig. 5's Entropy curve).
type Entropy struct{}

// Name implements Policy.
func (Entropy) Name() string { return "Entropy" }

// Select implements Policy.
func (Entropy) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, st.Log, u)
	if len(cands) == 0 {
		return nil
	}
	scores := scoreAll(cands, runtime.GOMAXPROCS(0), func(c tabular.Cell) float64 {
		h := st.Model.Entropy(c)
		if st.Model.Table.Schema.Columns[c.Col].Type == tabular.Continuous {
			// Undo the column standardisation: H_natural = H_z + ln(std).
			if std := st.Model.ColStd[c.Col]; std > 0 {
				h += math.Log(std)
			}
		}
		return h
	})
	return topK(cands, scores, k)
}

// InherentIG implements Sec. 5.1: greedy top-K by the delta-entropy
// information gain of Eq. 6, which accounts for the incoming worker's
// quality and the cell's difficulty and is comparable across datatypes.
type InherentIG struct{}

// Name implements Policy.
func (InherentIG) Name() string { return "Inherent IG" }

// Select implements Policy.
func (InherentIG) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, st.Log, u)
	if len(cands) == 0 {
		return nil
	}
	scores := scoreAll(cands, runtime.GOMAXPROCS(0), func(c tabular.Cell) float64 {
		return InfoGain(st.Model, u, c)
	})
	return topK(cands, scores, k)
}

// StructureIG implements Sec. 5.2: information gain with the worker's
// expected error conditioned on their observed errors in the same row
// (Eq. 7), using the attribute-correlation model. T-Crowd's default.
type StructureIG struct{}

// Name implements Policy.
func (StructureIG) Name() string { return "Structure-Aware IG" }

// Select implements Policy.
func (g StructureIG) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	return g.SelectAnswers(st, u, st.Log.ByWorker(u), k)
}

// SelectAnswers is Select given worker u's answers (log.ByWorker order)
// instead of st.Log, so a served request needs only a copy of its own
// answers. It reads st without writing it. Each score equals
// StructInfoGain's (InfoGain's without an error model) bit for bit, but
// is computed from the state's cached cell terms with the worker's
// variance resolved once and their row errors laid out by column.
func (StructureIG) SelectAnswers(st *State, u tabular.WorkerID, answers []tabular.Answer, k int) []tabular.Cell {
	m := st.Model
	rows, cols := m.Table.NumRows(), m.Table.NumCols()
	terms := st.terms
	if terms == nil {
		terms = newCellTerms(m)
	}
	answered := make([]uint64, (rows*cols+63)/64)
	for _, a := range answers {
		key := a.Cell.Row*cols + a.Cell.Col
		answered[key/64] |= 1 << (key % 64)
	}
	var rowAt []int32
	var errVecs []float64
	if st.Err != nil {
		rowAt, errVecs = st.Err.rowErrorVectors(answers, st.Est)
	}
	phi, eps := m.PhiFor(u), m.Opts.Eps
	ps := make([]scored, 0, rows*cols)
	for i := 0; i < rows; i++ {
		// errs is the worker's row-i error vector when it has a known error.
		var errs []float64
		if rowAt != nil && rowAt[i] >= 0 {
			errs = errVecs[rowAt[i]:][:cols]
		}
		for j := 0; j < cols; j++ {
			key := i*cols + j
			if answered[key/64]&(1<<(key%64)) != 0 {
				continue
			}
			ct := terms.cell[key]
			s := m.CellVariance(i, j, phi)
			var score float64
			if ct.off >= 0 {
				q := math.Erf(eps / math.Sqrt(2*s))
				if errs != nil {
					if pWrong, ok := st.Err.condWrongProb(j, errs); ok {
						q = structQuality(q, pWrong)
					}
				}
				score = terms.catGain(ct, q)
			} else {
				if errs != nil {
					if cond, ok := st.Err.condErrorNormal(j, errs); ok {
						s = structVariance(cond, s)
					}
				}
				score = contInfoGain(ct.v0, s)
			}
			ps = append(ps, scored{tabular.Cell{Row: i, Col: j}, score})
		}
	}
	if len(ps) == 0 {
		return nil
	}
	return topKScored(ps, k)
}

// Policies returns the Fig. 5 heuristic line-up, all running on T-Crowd
// inference.
func Policies() []Policy {
	return []Policy{Random{}, &Looping{}, Entropy{}, InherentIG{}, StructureIG{}}
}
