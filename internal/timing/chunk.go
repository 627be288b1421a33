package timing

import "slices"

// chunkBits sets the copy-on-write granularity of an STA's per-cell
// slices: 2^chunkBits consecutive cells share one chunk.
const (
	chunkBits = 6
	chunkMask = 1<<chunkBits - 1
)

// chunked is a per-cell slice held as a directory of fixed-size chunks, so
// that an edit copies the directory and the chunks it writes instead of
// one header per cell (DESIGN.md section 25.5).
type chunked[T any] [][]T

// chunk returns the chunked view of xs, sharing its backing array.
func chunk[T any](xs []T) chunked[T] {
	c := make(chunked[T], 0, (len(xs)+chunkMask)>>chunkBits)
	for lo := 0; lo < len(xs); lo += chunkMask + 1 {
		hi := min(lo+chunkMask+1, len(xs))
		c = append(c, xs[lo:hi:hi])
	}
	return c
}

// at returns entry i.
func (c chunked[T]) at(i int) T { return c[i>>chunkBits][i&chunkMask] }

// cow is a copy-on-write edit of a chunked slice c: the first set copies
// the directory, and the first set into a chunk copies that chunk, so the
// slice the edit started from is never written.
type cow[T any] struct {
	c      chunked[T]
	copied []bool // per chunk; nil until the first set
}

// set writes entry i of the edited slice.
func (w *cow[T]) set(i int, v T) {
	if w.copied == nil {
		w.c = slices.Clone(w.c)
		w.copied = make([]bool, len(w.c))
	}
	k := i >> chunkBits
	if !w.copied[k] {
		w.c[k] = slices.Clone(w.c[k])
		w.copied[k] = true
	}
	w.c[k][i&chunkMask] = v
}
