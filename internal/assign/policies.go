package assign

import (
	"math"

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
type Entropy struct {
	// Parallelism bounds the scoring goroutines (0 = GOMAXPROCS).
	Parallelism int
}

// Name implements Policy.
func (Entropy) Name() string { return "Entropy" }

// Select implements Policy.
func (e Entropy) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, st.Log, u)
	if len(cands) == 0 {
		return nil
	}
	scores := scoreAll(cands, e.Parallelism, func(c tabular.Cell) float64 {
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
type InherentIG struct {
	Parallelism int
}

// Name implements Policy.
func (InherentIG) Name() string { return "Inherent IG" }

// Select implements Policy.
func (g InherentIG) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, st.Log, u)
	if len(cands) == 0 {
		return nil
	}
	scores := scoreAll(cands, g.Parallelism, func(c tabular.Cell) float64 {
		return InfoGain(st.Model, u, c)
	})
	return topK(cands, scores, k)
}

// StructureIG implements Sec. 5.2: information gain with the worker's
// expected error conditioned on their observed errors in the same row
// (Eq. 7), using the attribute-correlation model. T-Crowd's default.
type StructureIG struct {
	Parallelism int
}

// Name implements Policy.
func (StructureIG) Name() string { return "Structure-Aware IG" }

// Select implements Policy.
func (g StructureIG) Select(st *State, u tabular.WorkerID, k int) []tabular.Cell {
	cands := candidateCells(st.Model.Table, st.Log, u)
	if len(cands) == 0 {
		return nil
	}
	if st.Err == nil {
		scores := scoreAll(cands, g.Parallelism, func(c tabular.Cell) float64 {
			return InfoGain(st.Model, u, c)
		})
		return topK(cands, scores, k)
	}
	// One pass over the worker's history, then O(1) row-error lookups per
	// candidate cell.
	byRow := st.Err.WorkerRowErrors(st.Log.ByWorker(u), st.Est)
	scores := scoreAll(cands, g.Parallelism, func(c tabular.Cell) float64 {
		rowErrs := byRow[c.Row]
		if len(rowErrs) == 0 {
			return InfoGain(st.Model, u, c)
		}
		return structInfoGainWithErrors(st.Model, st.Err, u, c, rowErrs)
	})
	return topK(cands, scores, k)
}

// Policies returns the Fig. 5 heuristic line-up, all running on T-Crowd
// inference.
func Policies() []Policy {
	return []Policy{Random{}, &Looping{}, Entropy{}, InherentIG{}, StructureIG{}}
}
