package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Segment shipping: the transport-agnostic half of cluster WAL
// replication. A home node serialises its live segment files
// (ShipSegments), some transport moves them (the cluster layer carries
// them on every generation post and on the handoff push), and the
// receiver lays them down as an exact copy (WriteSegments) and replays
// them through the ordinary recovery path — shipping reuses the exact
// crash-recovery machinery (torn-tail truncation, checkpoint-led replay
// start) instead of inventing a second decoder.

// ShippedSegment is one WAL segment file in transit: its index and the
// raw frame bytes. Data is a whole-frame prefix of the segment (ships cut
// the active segment at the last acknowledged frame), so the receiver's
// replay never sees a tear the sender acknowledged past. JSON encoding
// base64s Data automatically.
type ShippedSegment struct {
	Index int    `json:"index"`
	Data  []byte `json:"data"`
}

// ShipSegments snapshots the log's live segment files in index order. It
// holds the log lock for the duration so the shipped set is a
// point-in-time consistent prefix of the append stream (segments are
// small — bounded by Options.SegmentBytes — and compaction leaves one
// checkpoint-led segment, so the stall is short); the active segment is
// cut at the last acknowledged frame boundary.
func (l *Log) ShipSegments() ([]ShippedSegment, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.sticky != nil {
		return nil, l.sticky
	}
	fs := l.opts.FS
	entries, err := fs.ReadDir(l.dir) // sorted by name, so by index
	if err != nil {
		return nil, fmt.Errorf("wal: ship: list %s: %w", l.dir, err)
	}
	var out []ShippedSegment
	for _, e := range entries {
		m := segmentRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, _ := strconv.Atoi(m[1])
		data, err := readAll(fs, filepath.Join(l.dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("wal: ship segment %d: %w", idx, err)
		}
		if idx == l.index && int64(len(data)) > l.size {
			// The active segment's file may extend past the last
			// acknowledged frame (a write that failed mid-frame and has not
			// healed yet). Ship only the acknowledged prefix.
			data = data[:l.size]
		}
		out = append(out, ShippedSegment{Index: idx, Data: data})
	}
	return out, nil
}

// WriteSegments lays shipped segments down in dir as an exact copy of the
// sender's live set: each one is written (replacing any previous copy) and
// fsynced, then segment files outside the shipped set are removed — a
// compaction on the sender deletes low indices, and leftovers here would
// change what replay sees relative to the sender. Segment paths derive
// from the validated index — nothing on the wire is trusted as a path.
// The resulting directory is a valid wal.Open target; a crash mid-write
// leaves a torn or missing tail that Open's recovery truncates, and the
// next ship rewrites the whole set.
func WriteSegments(fsys FS, dir string, segs []ShippedSegment) error {
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: adopt: mkdir %s: %w", dir, err)
	}
	shipped := make(map[int]bool, len(segs))
	for _, seg := range segs {
		if seg.Index < 1 {
			return fmt.Errorf("wal: adopt: segment index %d out of range", seg.Index)
		}
		shipped[seg.Index] = true
		name := filepath.Join(dir, segmentName(seg.Index))
		f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("wal: adopt: create %s: %w", name, err)
		}
		if _, err := f.Write(seg.Data); err != nil {
			f.Close()
			return fmt.Errorf("wal: adopt: write %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: adopt: sync %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("wal: adopt: close %s: %w", name, err)
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: adopt: list %s: %w", dir, err)
	}
	for _, e := range entries {
		m := segmentRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, _ := strconv.Atoi(m[1])
		if !shipped[idx] {
			_ = fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
	_ = fsys.SyncDir(dir)
	return nil
}
