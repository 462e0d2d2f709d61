package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fault-injection sentinels surfaced by MemFS.
var (
	// ErrInjected is the error MemFS returns for a write failure armed
	// with FailWrite/ShortWrite.
	ErrInjected = errors.New("wal: injected write fault")
	// ErrCrashed is returned by every mutating operation after Crash: the
	// "process" died; only the durable bytes survive into Recovered().
	ErrCrashed = errors.New("wal: filesystem crashed")
)

// MemFS is an in-memory FS with an explicit durability model, built to
// torture the WAL:
//
//   - Every file tracks durable bytes (synced) separately from pending
//     bytes (written but not yet fsynced).
//   - FailWrite / ShortWrite arm a fault at the Nth subsequent write:
//     the write fails outright, or applies only a prefix before failing —
//     the torn-write and I/O-error cases Append must surface and heal.
//   - Crash simulates a hard kill (power loss / SIGKILL): unsynced bytes
//     are discarded except for a deterministic torn prefix per file, and
//     every later mutation fails with ErrCrashed. Recovered() then hands
//     back the surviving on-disk image as a fresh FS, exactly what a
//     restarted process would find.
//
// It is safe for concurrent use and intended only for tests.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool

	writes    int // Write calls observed, for arming faults
	failAt    int // fail the failAt-th write (1-based; 0 = disarmed)
	shortAt   int // short-write the shortAt-th write
	crashed   bool
	tornBytes int // prefix of pending kept per file on Crash
}

type memFile struct {
	durable []byte
	pending []byte
}

// contents is the live view of a file (what a reader in the same
// still-running process sees).
func (f *memFile) contents() []byte {
	out := make([]byte, 0, len(f.durable)+len(f.pending))
	out = append(out, f.durable...)
	return append(out, f.pending...)
}

// NewMemFS returns an empty in-memory filesystem with a root directory.
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		dirs:  map[string]bool{"/": true, ".": true},
	}
}

// FailWrite arms a full write failure at the n-th Write call from now
// (1 = the very next write). No bytes are applied.
func (m *MemFS) FailWrite(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAt, m.writes = n, 0
}

// ShortWrite arms a torn write at the n-th Write call from now: half the
// buffer is applied, then the write fails.
func (m *MemFS) ShortWrite(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shortAt, m.writes = n, 0
}

// Writes reports the number of Write calls observed since the last
// FailWrite/ShortWrite arming (or since creation).
func (m *MemFS) Writes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// Crash hard-kills the filesystem: every file keeps its durable bytes
// plus at most tornBytes of its pending (unsynced) bytes — a torn tail —
// and every subsequent mutation fails with ErrCrashed. Reads keep
// working so the test can inspect the wreckage; use Recovered for the
// restarted-process view.
func (m *MemFS) Crash(tornBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return
	}
	m.crashed = true
	m.tornBytes = tornBytes
	for _, f := range m.files {
		keep := min(tornBytes, len(f.pending))
		f.durable = append(f.durable, f.pending[:keep]...)
		f.pending = nil
	}
}

// Recovered returns the post-crash durable image as a fresh, writable
// MemFS — what the restarted process mounts. Calling it before Crash
// returns the synced-bytes-only view (i.e. it always answers "what
// survives a power cut right now?").
func (m *MemFS) Recovered() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, f := range m.files {
		out.files[name] = &memFile{durable: append([]byte(nil), f.durable...)}
	}
	for d := range m.dirs {
		out.dirs[d] = true
	}
	return out
}

func norm(p string) string { return path.Clean(filepath.ToSlash(p)) }

func (m *MemFS) MkdirAll(p string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	p = norm(p)
	for p != "/" && p != "." {
		m.dirs[p] = true
		p = path.Dir(p)
	}
	return nil
}

func (m *MemFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = norm(name)
	f, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if m.crashed {
			return nil, ErrCrashed
		}
		f = &memFile{}
		m.files[name] = f
		for d := path.Dir(name); d != "/" && d != "."; d = path.Dir(d) {
			m.dirs[d] = true
		}
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	if writable && flag&os.O_TRUNC != 0 {
		// Truncation mutates the file, so it obeys the crash seam like any
		// write (segment shipping rewrites mirrored segments with O_TRUNC).
		if m.crashed {
			return nil, ErrCrashed
		}
		f.durable = f.durable[:0]
		f.pending = f.pending[:0]
	}
	return &memHandle{fs: m, name: name, writable: writable}, nil
}

func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = norm(name)
	if !m.dirs[name] {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	seen := map[string]os.DirEntry{}
	collect := func(p string, dir bool) {
		if p == name || !strings.HasPrefix(p, name+"/") {
			return
		}
		rest := strings.TrimPrefix(p, name+"/")
		child, _, nested := strings.Cut(rest, "/")
		if _, ok := seen[child]; !ok {
			seen[child] = memDirEntry{name: child, dir: dir || nested}
		}
	}
	for p := range m.dirs {
		collect(p, true)
	}
	for p := range m.files {
		collect(p, false)
	}
	out := make([]os.DirEntry, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	oldpath, newpath = norm(oldpath), norm(newpath)
	if f, ok := m.files[oldpath]; ok {
		m.files[newpath] = f
		delete(m.files, oldpath)
		return nil
	}
	if !m.dirs[oldpath] {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	// Directory rename: move the subtree (like os.Rename on a directory).
	move := func(set map[string]bool) {
		for p := range set {
			if p == oldpath || strings.HasPrefix(p, oldpath+"/") {
				set[newpath+strings.TrimPrefix(p, oldpath)] = true
				delete(set, p)
			}
		}
	}
	move(m.dirs)
	for p, f := range m.files {
		if strings.HasPrefix(p, oldpath+"/") {
			m.files[newpath+strings.TrimPrefix(p, oldpath)] = f
			delete(m.files, p)
		}
	}
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	name = norm(name)
	if _, ok := m.files[name]; !ok {
		if !m.dirs[name] {
			return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
		}
		delete(m.dirs, name)
		return nil
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) RemoveAll(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	p = norm(p)
	for name := range m.files {
		if name == p || strings.HasPrefix(name, p+"/") {
			delete(m.files, name)
		}
	}
	for name := range m.dirs {
		if name == p || strings.HasPrefix(name, p+"/") {
			delete(m.dirs, name)
		}
	}
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	f, ok := m.files[norm(name)]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	switch n := int(size); {
	case n <= len(f.durable):
		f.durable = f.durable[:n]
		f.pending = nil
	default:
		f.pending = f.pending[:n-len(f.durable)]
	}
	return nil
}

func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = norm(name)
	if f, ok := m.files[name]; ok {
		return memFileInfo{name: path.Base(name), size: int64(len(f.durable) + len(f.pending))}, nil
	}
	if m.dirs[name] {
		return memFileInfo{name: path.Base(name), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// memHandle is one open file. Reads see the live combined view; writes
// append to the pending (unsynced) region.
type memHandle struct {
	fs       *MemFS
	name     string
	off      int
	writable bool
	closed   bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, ok := h.fs.files[h.name]
	if !ok || h.closed {
		return 0, fs.ErrClosed
	}
	data := f.contents()
	if h.off >= len(data) {
		return 0, io.EOF
	}
	n := copy(p, data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed || !h.writable {
		return 0, fs.ErrClosed
	}
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	f, ok := h.fs.files[h.name]
	if !ok {
		return 0, fs.ErrClosed
	}
	h.fs.writes++
	switch h.fs.writes {
	case h.fs.failAt:
		return 0, fmt.Errorf("%w (write %d failed)", ErrInjected, h.fs.writes)
	case h.fs.shortAt:
		n := len(p) / 2
		f.pending = append(f.pending, p[:n]...)
		return n, fmt.Errorf("%w (write %d torn at %d/%d bytes)", ErrInjected, h.fs.writes, n, len(p))
	}
	f.pending = append(f.pending, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	f, ok := h.fs.files[h.name]
	if !ok {
		return fs.ErrClosed
	}
	f.durable = append(f.durable, f.pending...)
	f.pending = nil
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}

// memDirEntry / memFileInfo implement the listing interfaces.
type memDirEntry struct {
	name string
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) {
	return memFileInfo{name: e.name, dir: e.dir}, nil
}

type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }
