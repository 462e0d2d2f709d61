package wal

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// shipAll ships every live segment of l, failing the test on error.
func shipAll(t *testing.T, l *Log) []ShippedSegment {
	t.Helper()
	segs, err := l.ShipSegments()
	if err != nil {
		t.Fatalf("ShipSegments: %v", err)
	}
	return segs
}

// segmentFiles maps the segment file names in dir to their contents.
func segmentFiles(t *testing.T, fsys FS, dir string) map[string]string {
	t.Helper()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if segmentRE.MatchString(e.Name()) {
			data, err := readAll(fsys, filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
	}
	return out
}

func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestShipRoundTrip pins the core shipping contract: laying a shipped
// segment set down in a fresh directory and replaying it through Open
// yields exactly the records the sender acknowledged.
func TestShipRoundTrip(t *testing.T) {
	src := NewMemFS()
	l, _ := openTest(t, src, Options{SegmentBytes: 64})
	var want []Record
	for i := 0; i < 12; i++ {
		r := rec(3, fmt.Sprintf("answer-batch-%02d-padding", i))
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	segs := shipAll(t, l)
	if len(segs) < 2 {
		t.Fatalf("shipped %d segments, want >= 2 (rotation)", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Index <= segs[i-1].Index {
			t.Fatalf("shipped indices out of order: %d then %d", segs[i-1].Index, segs[i].Index)
		}
	}

	dst := NewMemFS()
	if err := WriteSegments(dst, "mirror/alpha", segs); err != nil {
		t.Fatalf("WriteSegments: %v", err)
	}
	opts := Options{FS: dst, CheckpointType: ckptType, SegmentBytes: 64}
	l2, rep, err := Open("mirror/alpha", opts)
	if err != nil {
		t.Fatalf("Open mirror: %v", err)
	}
	defer l2.Close()
	if rep.Torn {
		t.Fatal("mirror replay reported a torn tail")
	}
	wantRecords(t, rep.Records, want...)
	l.Close()
}

// TestShipAfterCompactLeavesExactMirror pins the exact-copy contract: a
// mirror written from a multi-segment log, then rewritten from a re-ship
// after the sender compacted, holds exactly the sender's live segment
// files, byte for byte — no segment from before the checkpoint survives —
// and replays from the checkpoint on.
func TestShipAfterCompactLeavesExactMirror(t *testing.T) {
	src := NewMemFS()
	l, _ := openTest(t, src, Options{SegmentBytes: 64})
	defer l.Close()
	for i := 0; i < 12; i++ {
		if _, err := l.Append(rec(3, fmt.Sprintf("answer-batch-%02d-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewMemFS()
	first := shipAll(t, l)
	if len(first) < 2 {
		t.Fatalf("shipped %d segments, want >= 2 (rotation)", len(first))
	}
	if err := WriteSegments(dst, "mirror/alpha", first); err != nil {
		t.Fatal(err)
	}

	if err := l.Compact(rec(0, "checkpoint-state")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(3, "after")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSegments(dst, "mirror/alpha", shipAll(t, l)); err != nil {
		t.Fatal(err)
	}
	got, want := segmentFiles(t, dst, "mirror/alpha"), segmentFiles(t, src, "proj/alpha")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror holds segments %v, sender's live set is %v (or their bytes differ)", sortedNames(got), sortedNames(want))
	}
	_, rep, err := Open("mirror/alpha", Options{FS: dst, CheckpointType: ckptType})
	if err != nil {
		t.Fatalf("Open mirror: %v", err)
	}
	wantRecords(t, rep.Records, rec(ckptType, "checkpoint-state"), rec(3, "after"))
}

// TestShipRejectsBadIndex pins that segment indices from the wire are
// validated before becoming file names.
func TestShipRejectsBadIndex(t *testing.T) {
	dst := NewMemFS()
	err := WriteSegments(dst, "mirror/alpha", []ShippedSegment{{Index: 0, Data: []byte("x")}})
	if err == nil {
		t.Fatal("index 0 accepted")
	}
	err = WriteSegments(dst, "mirror/alpha", []ShippedSegment{{Index: -3, Data: nil}})
	if err == nil {
		t.Fatal("negative index accepted")
	}
}
