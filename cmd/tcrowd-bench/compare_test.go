package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBench writes a -bench-json result file holding one series and
// returns its path.
func writeBench(t *testing.T, name string, ns float64, allocs int64) string {
	t.Helper()
	b, err := json.Marshal(benchFile{Benchmarks: map[string]benchResult{
		"refresh/warm": {N: 10, NsPerOp: ns, AllocsPerOp: allocs},
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGatesOnMedians pins the median rule of -compare over repeated
// runs: a series that regresses in one of three candidate runs passes, a
// series that regresses in two of three fails, in ns/op and in allocs/op
// alike; one file per side gates that file.
func TestCompareGatesOnMedians(t *testing.T) {
	cfg := compareConfig{gates: []string{"refresh/"}, maxNsRegress: 0.08, maxAllocRegress: 0.001}
	bases := strings.Join([]string{
		writeBench(t, "b1.json", 100, 10),
		writeBench(t, "b2.json", 104, 10),
		writeBench(t, "b3.json", 98, 10),
	}, ",")
	for _, tc := range []struct {
		name    string
		runs    [][2]float64 // ns/op, allocs/op per candidate run
		regress bool
	}{
		{"steady", [][2]float64{{101, 10}, {99, 10}, {103, 10}}, false},
		{"one slow run of three", [][2]float64{{101, 10}, {150, 10}, {99, 10}}, false},
		{"two slow runs of three", [][2]float64{{150, 10}, {101, 10}, {140, 10}}, true},
		{"one alloc-heavy run of three", [][2]float64{{100, 10}, {100, 30}, {100, 10}}, false},
		{"two alloc-heavy runs of three", [][2]float64{{100, 30}, {100, 30}, {100, 10}}, true},
		{"one slow file", [][2]float64{{150, 10}}, true},
		{"one steady file", [][2]float64{{105, 10}}, false},
	} {
		var cands []string
		for i, r := range tc.runs {
			cands = append(cands, writeBench(t, tc.name+string(rune('0'+i))+".json", r[0], int64(r[1])))
		}
		err := runCompare(bases, strings.Join(cands, ","), cfg)
		if (err != nil) != tc.regress {
			t.Errorf("%s: compare error = %v, want regression %v", tc.name, err, tc.regress)
		}
	}
	if err := runCompare(writeBench(t, "one.json", 100, 10), writeBench(t, "slow.json", 109, 10), cfg); err == nil {
		t.Error("one file per side: a 9 % slower series passed the 8 % gate")
	}
}
