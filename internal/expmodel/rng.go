package expmodel

// SplitMix64 is a tiny deterministic RNG for the models.
type SplitMix64 struct{ state uint64 }

// NewRNG seeds a SplitMix64.
func NewRNG(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64-bit value.
func (r *SplitMix64) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *SplitMix64) Intn(n int) int {
	return int(r.Next() % uint64(n))
}
