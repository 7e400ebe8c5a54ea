// Package recycle holds the slice helpers shared by the simulator's Reset
// methods. Each returns a slice of the requested shape and reuses the
// backing array it is given when that array is large enough, so a component
// reset for the same configuration allocates nothing.
package recycle

// Zeroed returns s resized to n elements, every one of them zero. It reuses
// s's backing array when its capacity suffices and allocates otherwise.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Empty returns s truncated to length zero with capacity at least n.
func Empty[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Lists returns lists resized to n inner slices, each truncated to length
// zero. Inner slices keep their capacity, including those carried over when
// the outer slice has to grow, so lists that filled up one append at a time
// in an earlier run start the next one already sized.
func Lists[T any](lists [][]T, n int) [][]T {
	if cap(lists) < n {
		grown := make([][]T, n)
		copy(grown, lists[:cap(lists)])
		lists = grown
	}
	lists = lists[:n]
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}
