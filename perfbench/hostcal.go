package main

import (
	"slices"
	"time"
)

// hostRefMS is what one hostKernel sample takes on the reference host
// that the benchmark's time metrics are expressed on.
const hostRefMS = 3.0

// hostKernel is a fixed piece of work whose time tells how fast this
// host runs code like the program's at the moment it is sampled. On a
// shared host the same binary's op times swing by 1.5-2x within
// minutes while the CPU accounting shows almost no steal, which points
// at other tenants contending for the core's caches and execution
// units. A register-only loop barely sees that contention, so the
// kernel does what the program does most (hash-map inserts and
// lookups, sorting, chasing indices through a few hundred KiB, a
// binary-heap event queue), on data it allocates once, so that a sample
// neither allocates nor depends on the program's heap or code. Timed
// passes and set-ups are scaled by the samples taken around them; see
// hostScale.
type hostKernel struct {
	index map[int]int32
	nodes []kernelNode
	keys  []int
	queue []kernelEvent
	seed  rng // every run draws the same stream
	sink  uint64
}

type kernelNode struct {
	key  int
	pad  [3]uint64
	next int32
}

type kernelEvent struct {
	at uint64
	id int
}

const (
	kernelKeys   = 4096
	kernelNodes  = 8192
	kernelEvents = 2048
	kernelSteps  = 16384
	// kernelReps is how often a sample runs the kernel; the sample is the
	// fastest run, the one that found its data in the core's caches and
	// was not interrupted.
	kernelReps = 3
)

func newHostKernel() *hostKernel {
	return &hostKernel{
		index: make(map[int]int32, kernelKeys),
		nodes: make([]kernelNode, kernelNodes+1),
		keys:  make([]int, 0, kernelNodes),
		queue: make([]kernelEvent, 0, kernelEvents),
		seed:  *newRNG(9, "host-kernel"),
	}
}

// sample returns the kernel's time in ms.
func (k *hostKernel) sample() float64 {
	best := 0.0
	for i := 0; i < kernelReps; i++ {
		start := time.Now()
		k.run()
		if d := ms(time.Since(start)); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func (k *hostKernel) run() {
	// Chained buckets in a map, then every chain walked in key order.
	clear(k.index)
	k.keys = k.keys[:0]
	r := k.seed
	for i := 1; i <= kernelNodes; i++ {
		key := int(r.next() % kernelKeys)
		k.nodes[i] = kernelNode{key: key, next: k.index[key]}
		k.index[key] = int32(i)
		k.keys = append(k.keys, key)
	}
	slices.Sort(k.keys)
	var sum uint64
	for _, key := range k.keys {
		for j := k.index[key]; j != 0; j = k.nodes[j].next {
			sum += uint64(k.nodes[j].key)
		}
	}
	// An event queue: pop the earliest event, schedule its successor.
	k.queue = k.queue[:0]
	for i := 0; i < kernelEvents; i++ {
		k.push(kernelEvent{at: r.next() % 100000, id: i})
	}
	for i := 0; i < kernelSteps; i++ {
		e := k.pop()
		sum += e.at
		k.push(kernelEvent{at: e.at + r.next()%1000, id: e.id})
	}
	k.sink += sum
}

func (k *hostKernel) push(e kernelEvent) {
	q := append(k.queue, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	k.queue = q
}

func (k *hostKernel) pop() kernelEvent {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].at < q[c].at {
			c++
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	k.queue = q
	return top
}

// hostScale converts a host time measured between two kernel samples
// (ms) into time on the reference host: it divides by the host's speed
// relative to the reference, taken as the mean of the two samples.
func hostScale(before, after float64) float64 {
	return hostRefMS / ((before + after) / 2)
}
