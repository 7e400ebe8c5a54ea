package recycle

import "testing"

func TestZeroedReusesAndClears(t *testing.T) {
	s := []int{1, 2, 3, 4}
	r := Zeroed(s, 3)
	if len(r) != 3 || &r[0] != &s[0] {
		t.Fatalf("Zeroed(cap 4, 3) = len %d, reused %v", len(r), &r[0] == &s[0])
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("r[%d] = %d, want 0", i, v)
		}
	}
	// Growing back within capacity clears the elements past the old length.
	r = Zeroed(r, 4)
	if r[3] != 0 || &r[0] != &s[0] {
		t.Fatalf("Zeroed within capacity: r[3] = %d, reused %v", r[3], &r[0] == &s[0])
	}
	if g := Zeroed(s, 5); len(g) != 5 || &g[0] == &s[0] {
		t.Fatal("Zeroed beyond capacity must allocate a new array")
	}
	if n := Zeroed([]int(nil), 0); n != nil {
		t.Fatalf("Zeroed(nil, 0) = %v, want nil", n)
	}
}

func TestEmptyKeepsCapacity(t *testing.T) {
	s := make([]int, 2, 8)
	if r := Empty(s, 8); len(r) != 0 || cap(r) != 8 {
		t.Fatalf("Empty(cap 8, 8) = len %d cap %d", len(r), cap(r))
	}
	if r := Empty(s, 9); len(r) != 0 || cap(r) < 9 {
		t.Fatalf("Empty(cap 8, 9) = len %d cap %d", len(r), cap(r))
	}
}
