package scenario

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Sub-stream split: every random dimension of a scenario (mix
// selection, parameter draws, arrival times, fault planning) gets its
// own math/rand stream derived from the one top-level seed and a label.
// Draw counts in one dimension therefore never shift another — adding a
// parameter to the mix does not change which faults are injected.
//
// This file is the only place in the tree (outside tests) that
// constructs math/rand sources; the seed-discipline test at the repo
// root enforces that.

// subStream derives the labelled stream from the top-level seed: the
// seed mixed with the label's FNV-1a hash.
func subStream(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ h.Sum64()))))
}

// splitmix64 finalizes the seed/label mix so nearby seeds yield
// unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// expDraw draws a unit-rate exponential variate.
func expDraw(r *rand.Rand) float64 {
	return -math.Log(1 - r.Float64())
}

// gammaDraw draws a Gamma(shape, 1) variate via Marsaglia-Tsang, with
// the standard boost for shape < 1.
func gammaDraw(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		return gammaDraw(r, shape+1) * math.Pow(r.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
