// Package chunked provides a chunked slice with O(chunks) snapshots and
// copy-on-write mutation, the in-memory half of the store's overlay MVCC
// views: a committed batch snapshots the slot table in O(n/ChunkSize) pointer
// copies, then copies only the chunks its delta touches, so commit cost tracks
// the batch size instead of the dataset size.
package chunked

import "fmt"

// ChunkSize is the number of items per chunk. A commit copies every chunk
// it writes, and random slots spread over many chunks: with the store's
// 40-byte slot records at n = 20,000, a 64-move batch touches about 58 of
// 313 64-slot chunks (58 × 2.5 KiB ≈ 150 KB copied), where 512-slot chunks
// made it touch about 32 of 40 (32 × 20 KiB ≈ 650 KB, most of the table).
// The price is the snapshot's pointer table and flag sweep, one entry per
// chunk: 313 at n = 20k, 1,563 at n = 100k.
const ChunkSize = 64

// Slice is a mutable chunked slice. The zero value is an empty slice.
// It follows a single-writer/concurrent-snapshot-readers contract: one
// goroutine mutates, any number may read Snaps taken before the mutation.
type Slice[T any] struct {
	chunks []*[ChunkSize]T
	// shared marks chunks referenced by at least one Snap; they are copied
	// before the next write touches them.
	shared []bool
	n      int
}

// Len returns the number of items.
func (s *Slice[T]) Len() int { return s.n }

// At returns item i.
func (s *Slice[T]) At(i int) T {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("chunked: index %d out of range [0, %d)", i, s.n))
	}
	return s.chunks[i/ChunkSize][i%ChunkSize]
}

// own ensures chunk c is exclusively owned, copying it if a Snap shares it.
func (s *Slice[T]) own(c int) {
	if s.shared[c] {
		cp := *s.chunks[c]
		s.chunks[c] = &cp
		s.shared[c] = false
	}
}

// Set replaces item i.
func (s *Slice[T]) Set(i int, v T) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("chunked: index %d out of range [0, %d)", i, s.n))
	}
	c := i / ChunkSize
	s.own(c)
	s.chunks[c][i%ChunkSize] = v
}

// Append adds an item at the end.
func (s *Slice[T]) Append(v T) {
	c := s.n / ChunkSize
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([ChunkSize]T))
		s.shared = append(s.shared, false)
	} else {
		s.own(c)
	}
	s.chunks[c][s.n%ChunkSize] = v
	s.n++
}

// Truncate shortens the slice to n items, zeroing abandoned positions in
// owned chunks so the GC can reclaim what they referenced. Snaps taken
// earlier keep their full contents.
func (s *Slice[T]) Truncate(n int) {
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("chunked: truncate to %d of %d", n, s.n))
	}
	keep := (n + ChunkSize - 1) / ChunkSize
	for i := keep; i < len(s.chunks); i++ {
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:keep]
	s.shared = s.shared[:keep]
	if n%ChunkSize != 0 {
		c := keep - 1
		s.own(c)
		var zero T
		for i := n % ChunkSize; i < ChunkSize; i++ {
			s.chunks[c][i] = zero
		}
	}
	s.n = n
}

// Snapshot freezes the current contents in O(chunks): every chunk is marked
// shared and the chunk table is copied. The returned Snap is immutable and
// safe for concurrent readers while the Slice keeps mutating.
func (s *Slice[T]) Snapshot() Snap[T] {
	for i := range s.shared {
		s.shared[i] = true
	}
	return Snap[T]{chunks: append([]*[ChunkSize]T(nil), s.chunks...), n: s.n}
}

// Snap is an immutable snapshot of a Slice.
type Snap[T any] struct {
	chunks []*[ChunkSize]T
	n      int
}

// Len returns the number of items in the snapshot.
func (sn Snap[T]) Len() int { return sn.n }

// At returns item i of the snapshot.
func (sn Snap[T]) At(i int) T {
	if i < 0 || i >= sn.n {
		panic(fmt.Sprintf("chunked: index %d out of range [0, %d)", i, sn.n))
	}
	return sn.chunks[i/ChunkSize][i%ChunkSize]
}
