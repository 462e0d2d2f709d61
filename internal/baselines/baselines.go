// Package baselines implements the competitor truth-inference methods of
// the paper's evaluation (Sec. 6.2, Table 7):
//
//   - Majority Voting and Median — the equal-worker-weight baselines;
//   - D&S (Dawid & Skene) — per-worker confusion matrices, EM;
//   - ZenCrowd — single per-worker reliability, EM;
//   - GLAD — worker ability x task difficulty in a logistic model, EM;
//   - GTM — a Gaussian truth model for continuous data;
//   - CRH — loss-minimising truth discovery for heterogeneous data;
//   - CATD — confidence-aware (chi-square) source weighting;
//
// plus adapters exposing T-Crowd and its constrained variants
// (TC-onlyCate / TC-onlyCont) under the same interface so harnesses can
// sweep the full Table 7 method list.
package baselines

import (
	"tcrowd/internal/metrics"
	"tcrowd/internal/tabular"
)

// Method is a truth-inference algorithm: it reads a table's schema and an
// answer log and produces per-cell truth estimates. Cells of datatypes the
// method does not handle stay None ("/" in Table 7).
type Method interface {
	// Name is the display name used in experiment tables.
	Name() string
	// Infer estimates the truth of every answerable cell.
	Infer(tbl *tabular.Table, log *tabular.AnswerLog) (metrics.Estimates, error)
}

// All returns the full Table 7 line-up in the paper's row order.
func All() []Method {
	return []Method{
		TCrowd{},
		CRH{},
		CATD{},
		MajorityVote{},
		DawidSkene{},
		GLAD{},
		ZenCrowd{},
		TCOnlyCate{},
		Median{},
		GTM{},
		TCOnlyCont{},
	}
}

// catColumns returns the indices of categorical columns.
func catColumns(tbl *tabular.Table) []int {
	var out []int
	for j, c := range tbl.Schema.Columns {
		if c.Type == tabular.Categorical {
			out = append(out, j)
		}
	}
	return out
}

// contColumns returns the indices of continuous columns.
func contColumns(tbl *tabular.Table) []int {
	var out []int
	for j, c := range tbl.Schema.Columns {
		if c.Type == tabular.Continuous {
			out = append(out, j)
		}
	}
	return out
}
