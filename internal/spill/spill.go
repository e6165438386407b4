// Package spill implements the temporary-file substrate of the Perm
// engine's spill-to-disk execution paths: sequential "runs" of encoded
// column batches (reusing the internal/vector layouts) for the batch
// operators.
//
// Temp-file hygiene: every run is created with os.CreateTemp under a
// configurable directory and unlinked immediately after creation, so
// the storage is reclaimed by the OS the moment the file descriptor
// closes — including on a crash. On platforms (or filesystems) where
// the early unlink fails, the file is removed on Close instead, and
// Cleanup sweeps leftovers with the well-known name prefix on server
// start.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"perm/internal/fault"
	"perm/internal/mem"
	"perm/internal/types"
	"perm/internal/vector"
)

func math64(f float64) uint64   { return math.Float64bits(f) }
func unmath64(u uint64) float64 { return math.Float64frombits(u) }

// DownHeap restores the min-heap property of h from position at, with
// less ordering the stored values. Shared by the k-way run mergers of
// the external sorts and the sequence merges.
func DownHeap(h []int, at int, less func(a, b int) bool) {
	n := len(h)
	for {
		l, r := 2*at+1, 2*at+2
		least := at
		if l < n && less(h[l], h[least]) {
			least = l
		}
		if r < n && less(h[r], h[least]) {
			least = r
		}
		if least == at {
			return
		}
		h[at], h[least] = h[least], h[at]
		at = least
	}
}

// Heapify builds the heap bottom-up.
func Heapify(h []int, less func(a, b int) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		DownHeap(h, i, less)
	}
}

// FilePrefix names every spill temp file, so crash leftovers are
// identifiable (and sweepable) without touching unrelated files.
const FilePrefix = "perm-spill-"

// ResolveDir picks the spill directory: the explicit configuration if
// non-empty, else $PERM_SPILL_DIR, else the system temp directory.
func ResolveDir(dir string) string {
	if dir == "" {
		dir = os.Getenv("PERM_SPILL_DIR")
	}
	if dir == "" {
		dir = os.TempDir()
	}
	return dir
}

// Cleanup removes leftover spill files (from a crashed process whose
// early unlink did not happen) under dir. It returns the number of
// files removed; missing directories are not an error.
func Cleanup(dir string) int {
	dir = ResolveDir(dir)
	matches, err := filepath.Glob(filepath.Join(dir, FilePrefix+"*"))
	if err != nil {
		return 0
	}
	removed := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			removed++
		}
	}
	return removed
}

// Resources bundles what a spill-capable operator needs: the memory
// reservation it charges (nil = unlimited, never spills) and the
// directory its runs are created under. The zero value disables
// spilling.
type Resources struct {
	Res *mem.Reservation
	Dir string
}

// Enabled reports whether the operator can be denied memory — and must
// therefore be prepared to spill.
func (r Resources) Enabled() bool { return r.Res.Limited() }

// ---------------------------------------------------------------------------
// Shared temp-file plumbing

type tempFile struct {
	f *os.File
	// lateName holds the path when the early unlink failed; Close
	// removes it then.
	lateName string
	w        *bufio.Writer
	r        *bufio.Reader
	bytes    int64
	finished bool
	closed   bool
}

func newTempFile(dir string) (*tempFile, error) {
	if err := fault.Failure(fault.PointSpillWrite); err != nil {
		return nil, fmt.Errorf("spill: create temp file: %w", err)
	}
	dir = ResolveDir(dir)
	f, err := os.CreateTemp(dir, FilePrefix+"*")
	if err != nil {
		return nil, fmt.Errorf("spill: create temp file: %w", err)
	}
	t := &tempFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	if err := os.Remove(f.Name()); err != nil {
		t.lateName = f.Name()
	}
	return t, nil
}

func (t *tempFile) write(p []byte) error {
	// The fault tap simulates a mid-run write failure (disk full): the
	// bytes are reported unwritten, exactly as a short write would.
	if err := fault.Failure(fault.PointSpillWrite); err != nil {
		return fmt.Errorf("spill: write: %w", err)
	}
	n, err := t.w.Write(p)
	t.bytes += int64(n)
	return err
}

// finish flushes the write side and positions the file for reading.
func (t *tempFile) finish() error {
	if t.finished {
		return nil
	}
	t.finished = true
	if err := fault.Failure(fault.PointSpillWrite); err != nil {
		return fmt.Errorf("spill: flush: %w", err)
	}
	if err := t.w.Flush(); err != nil {
		return err
	}
	if _, err := t.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	t.r = bufio.NewReaderSize(t.f, 1<<16)
	return nil
}

func (t *tempFile) close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.f.Close()
	if t.lateName != "" {
		os.Remove(t.lateName) //nolint:errcheck — best-effort late unlink
	}
	return err
}

// ---------------------------------------------------------------------------
// Columnar run codec
//
// A Run is a sequence of batches. Each batch is encoded as:
//
//	u32 rows, u16 cols
//	per column: u8 kind, u8 hasNulls,
//	            [hasNulls: ceil(rows/64) × u64 null words]
//	            payload (int/date: rows×i64, float: rows×f64,
//	                     bool: rows bytes, string: per row u32 len + bytes)

// Run is one spill run of encoded column batches: written sequentially,
// finished, then read back sequentially exactly once.
type Run struct {
	t     *tempFile
	rows  int64
	buf   []byte
	kinds []types.Kind
}

// NewRun creates a run file under dir.
func NewRun(dir string) (*Run, error) {
	t, err := newTempFile(dir)
	if err != nil {
		return nil, err
	}
	return &Run{t: t}, nil
}

// Rows returns the number of rows written so far.
func (r *Run) Rows() int64 { return r.rows }

// Bytes returns the encoded size written so far.
func (r *Run) Bytes() int64 { return r.t.bytes }

func (r *Run) u32(v uint32) {
	r.buf = binary.LittleEndian.AppendUint32(r.buf, v)
}

func (r *Run) u64(v uint64) {
	r.buf = binary.LittleEndian.AppendUint64(r.buf, v)
}

// WriteCols appends one batch of n dense rows (no selection vectors; the
// caller gathers live lanes first). Column kinds must be consistent
// across every batch of the run.
func (r *Run) WriteCols(cols []*vector.Vec, n int) error {
	if n == 0 {
		return nil
	}
	r.rows += int64(n)
	r.buf = r.buf[:0]
	r.u32(uint32(n))
	r.buf = binary.LittleEndian.AppendUint16(r.buf, uint16(len(cols)))
	words := (n + 63) / 64
	for _, c := range cols {
		r.buf = append(r.buf, byte(c.Kind))
		hasNulls := c.Nulls.AnySet(n)
		if hasNulls {
			r.buf = append(r.buf, 1)
			for w := 0; w < words; w++ {
				if w < len(c.Nulls) {
					r.u64(c.Nulls[w])
				} else {
					r.u64(0)
				}
			}
		} else {
			r.buf = append(r.buf, 0)
		}
		switch c.Kind {
		case types.KindBool:
			for i := 0; i < n; i++ {
				if c.B[i] {
					r.buf = append(r.buf, 1)
				} else {
					r.buf = append(r.buf, 0)
				}
			}
		case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
			for i := 0; i < n; i++ {
				r.u64(uint64(c.I[i]))
			}
		case types.KindFloat:
			for i := 0; i < n; i++ {
				r.u64(math64(c.F[i]))
			}
		case types.KindString:
			for i := 0; i < n; i++ {
				r.u32(uint32(len(c.S[i])))
				r.buf = append(r.buf, c.S[i]...)
			}
		default:
			return fmt.Errorf("spill: unsupported column kind %v", c.Kind)
		}
	}
	return r.t.write(r.buf)
}

// Finish flushes the run and prepares it for reading.
func (r *Run) Finish() error { return r.t.finish() }

// ReadCols reads the next batch; it returns (nil, 0, nil) at the end of
// the run. Returned vectors are freshly allocated and owned by the
// caller.
func (r *Run) ReadCols() ([]*vector.Vec, int, error) {
	if err := fault.Failure(fault.PointSpillRead); err != nil {
		return nil, 0, fmt.Errorf("spill: read: %w", err)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(r.t.r, hdr[:4]); err != nil {
		if err == io.EOF {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	if _, err := io.ReadFull(r.t.r, hdr[4:6]); err != nil {
		return nil, 0, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	ncols := int(binary.LittleEndian.Uint16(hdr[4:6]))
	words := (n + 63) / 64
	cols := make([]*vector.Vec, ncols)
	var kb [8]byte
	for c := 0; c < ncols; c++ {
		if _, err := io.ReadFull(r.t.r, kb[:2]); err != nil {
			return nil, 0, err
		}
		kind := types.Kind(kb[0])
		v := vector.NewVec(kind, n)
		if kb[1] != 0 {
			for w := 0; w < words; w++ {
				if _, err := io.ReadFull(r.t.r, kb[:8]); err != nil {
					return nil, 0, err
				}
				if w < len(v.Nulls) {
					v.Nulls[w] = binary.LittleEndian.Uint64(kb[:8])
				}
			}
		}
		switch kind {
		case types.KindBool:
			for i := 0; i < n; i++ {
				b, err := r.t.r.ReadByte()
				if err != nil {
					return nil, 0, err
				}
				v.B[i] = b != 0
			}
		case types.KindInt, types.KindDate, types.KindInterval, types.KindNull:
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(r.t.r, kb[:8]); err != nil {
					return nil, 0, err
				}
				v.I[i] = int64(binary.LittleEndian.Uint64(kb[:8]))
			}
		case types.KindFloat:
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(r.t.r, kb[:8]); err != nil {
					return nil, 0, err
				}
				v.F[i] = unmath64(binary.LittleEndian.Uint64(kb[:8]))
			}
		case types.KindString:
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(r.t.r, kb[:4]); err != nil {
					return nil, 0, err
				}
				ln := int(binary.LittleEndian.Uint32(kb[:4]))
				sb := make([]byte, ln)
				if _, err := io.ReadFull(r.t.r, sb); err != nil {
					return nil, 0, err
				}
				v.S[i] = string(sb)
			}
		default:
			return nil, 0, fmt.Errorf("spill: corrupt run (kind %d)", kb[0])
		}
		cols[c] = v
	}
	return cols, n, nil
}

// Close releases the run's file (the storage was unlinked at creation).
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	return r.t.close()
}
