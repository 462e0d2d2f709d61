package core

import (
	"math/rand"
	"runtime"
	"testing"

	"tcrowd/internal/simulate"
	"tcrowd/internal/tabular"
)

// maxModelBytesPerAnswer bounds the live heap a fitted, streaming model
// holds per answer: its groups, GroupOff, posteriors and M-step scratch.
const maxModelBytesPerAnswer = 125

// TestBytesPerAnswer measures the live heap per answer of the answer log
// and of the model on a served project's shape: 500 rows x 8 columns (half
// categorical with 5 labels), 60 workers, FixedAssignment(4). Three of
// every four HITs (one worker answering a row) are cold-fitted; ten
// 25-answer batches of the held-back HITs then stream in, each refreshed
// with RefreshIncremental(50), the platform's path. Every group holds one
// answer here, as on a served project.
func TestBytesPerAnswer(t *testing.T) {
	ds := simulate.Generate(rand.New(rand.NewSource(7)), simulate.TableConfig{
		Rows: 500, Cols: 8, CatRatio: 0.5, MinLabels: 5, MaxLabels: 5,
		Population: simulate.PopulationConfig{N: 60, SpammerFrac: -1},
	})
	const batch, batches = 25, 10
	cols := ds.Table.NumCols()
	// order is the log order: the cold-fitted HITs, then the streamed ones.
	var order, held []tabular.Answer
	all := simulate.NewCrowd(ds, 7).FixedAssignment(4).All()
	for h := 0; h*cols < len(all); h++ {
		if h%4 == 3 {
			held = append(held, all[h*cols:(h+1)*cols]...)
		} else {
			order = append(order, all[h*cols:(h+1)*cols]...)
		}
	}
	cold := len(order)
	order = append(order, held[:batch*batches]...)
	all, held = nil, nil

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	log := tabular.NewAnswerLog()
	log.AddAll(order)
	h1 := heap()
	answers := log.All()
	m, err := InferAnswers(ds.Table, answers[:cold], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for at := cold; at < len(answers); at += batch {
		if err := m.Ingest(answers[at : at+batch]); err != nil {
			t.Fatal(err)
		}
		m.RefreshIncremental(50)
	}
	h2 := heap()
	runtime.KeepAlive(order)
	runtime.KeepAlive(log)
	runtime.KeepAlive(m)

	n := float64(m.NumAnswersUsed())
	if want := len(order); int(n) != want || log.Len() != want {
		t.Fatalf("model holds %v answers, log %d, want %d", n, log.Len(), want)
	}
	logB, modelB := float64(int64(h1-h0))/n, float64(int64(h2-h1))/n
	t.Logf("%v answers: answer log %.0f B/answer, model %.0f B/answer (%d groups)", n, logB, modelB, m.ilog.NumGroups())
	if modelB > maxModelBytesPerAnswer {
		t.Fatalf("model holds %.0f B per answer, want <= %d", modelB, maxModelBytesPerAnswer)
	}
}
