package expmodel

import "testing"

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
	// Intn stays in range and hits all buckets eventually.
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("Intn coverage: %d/8", len(seen))
	}
}
