package main

import (
	"hash/fnv"

	"repro/internal/workloads"
)

// rng is the benchmark's one source of generated inputs: a splitmix64
// stream per (seed, label), so each input class draws independently and
// the same seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between draws uniformly from [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// inputSeed draws a workload family's input-generator seed.
func (r *rng) inputSeed() int { return r.between(0, 1<<30) }

// shuffle permutes n items in place through swap.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.between(0, i))
	}
}

// band is a workload family with one size parameter drawn from
// [lo, hi] in multiples of step above lo; the other parameters are fixed.
type band struct {
	family string
	size   string
	lo, hi int
	step   int // 0 means 1
	fixed  workloads.Values
}

// pairs draws the parameters of n antithetic pairs of cases: pair p
// draws its size x from the p-th of n disjoint slices of the band's
// lower half and pairs it with the mirrored size lo+hi-x. Every case
// draws its own input seed, but the summed size of a pair, and so the
// work of a pass, is the same for every seed, and the sizes cover the
// band evenly. Because the slices are disjoint, every seed puts the same
// number of cases in each slice, which keeps the latency percentiles of
// a pass from depending on the seed.
func (b band) pairs(r *rng, n int) []workloads.Values {
	step := max(b.step, 1)
	steps := (b.hi-b.lo)/step/2 + 1 // sizes in the lower half
	var out []workloads.Values
	for p := 0; p < n; p++ {
		lo := p * steps / n
		x := b.lo + step*r.between(lo, max(lo, (p+1)*steps/n-1))
		for _, size := range []int{x, b.lo + b.hi - x} {
			v := b.fixed.Clone()
			v[b.size] = size
			v["seed"] = r.inputSeed()
			out = append(out, v)
		}
	}
	return out
}
