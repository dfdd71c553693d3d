package flow_test

import (
	"encoding/binary"
	"sort"
	"sync"
	"testing"

	"repro/internal/flow"
)

// fuzzDesign is one design the gang fuzz target seeds, prepared once per
// process: gang rounds run on one prepared design, the one-lane
// reference rounds on another.
type fuzzDesign struct {
	src          flow.Source
	gang, single *flow.PreparedDesign
	mems         []string // shared memories, sorted
}

var (
	fuzzOnce    sync.Once
	fuzzDesigns []*fuzzDesign
)

// fuzzFamilies are small workload designs covering fixed-trip
// arithmetic loops (newton, matmul), bit twiddling (hamming) and XOR
// recovery (erasure); spin adds a data-dependent trip count and gather,
// on a 64-bit datapath, memory addresses taken from data — negative
// words included.
var fuzzFamilies = []string{"newton", "hamming", "erasure", "matmul"}

// gatherSrc reads and writes memory at addresses loaded from idx.
const gatherSrc = `
void gather(int[] a, int[] idx, int[] b) {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    b[i] = a[idx[i]];
    a[idx[i] + 1] = i;
  }
}
`

func loadFuzzDesigns(t testing.TB) []*fuzzDesign {
	fuzzOnce.Do(func() {
		add := func(src flow.Source, opts ...flow.Option) {
			fd := &fuzzDesign{src: src, gang: prepare(t, "compiled", src, opts...), single: prepare(t, "compiled", src, opts...)}
			fd.mems = fd.gang.MemoryIDs()
			sort.Strings(fd.mems)
			fuzzDesigns = append(fuzzDesigns, fd)
		}
		for _, family := range fuzzFamilies {
			add(familyGangCase(t, family, 1).src)
		}
		add(spinSource())
		add(flow.Source{
			Name: "gather", Text: gatherSrc, Func: "gather",
			ArraySizes: map[string]int{"a": 8, "idx": 4, "b": 4},
			Inputs:     map[string][]int64{"a": {1, 2, 3, 4, 5, 6, 7, 8}, "idx": {0, 3, 5, 6}},
		}, flow.WithWidth(64))
	})
	if len(fuzzDesigns) != len(fuzzFamilies)+2 {
		t.Fatal("fuzz designs failed to prepare")
	}
	return fuzzDesigns
}

// fuzzLanes decodes fuzzed bytes into a design choice and 1-8 lanes of
// seeds: byte 0 picks the lane count, byte 1 the design, and the rest,
// read as little-endian 64-bit words (the last one zero-padded), fill
// every shared memory of every lane in turn, cycling when they run out.
// No words leaves every lane on the prepared seeds.
func fuzzLanes(data []byte, designs []*fuzzDesign) (*fuzzDesign, []map[string][]int64) {
	var lanes, pick byte
	if len(data) > 0 {
		lanes = data[0]
	}
	if len(data) > 1 {
		pick = data[1]
	}
	fd := designs[int(pick)%len(designs)]
	var words []int64
	for rest := data[min(len(data), 2):]; len(rest) > 0; rest = rest[min(len(rest), 8):] {
		var w [8]byte
		copy(w[:], rest)
		words = append(words, int64(binary.LittleEndian.Uint64(w[:])))
	}
	out := make([]map[string][]int64, 1+int(lanes%8))
	next := 0
	for l := range out {
		if len(words) == 0 {
			continue
		}
		seeds := map[string][]int64{}
		for _, id := range fd.mems {
			seed := make([]int64, fd.src.ArraySizes[id])
			for i := range seed {
				seed[i] = words[next%len(words)]
				next++
			}
			seeds[id] = seed
		}
		out[l] = seeds
	}
	return fd, out
}

// withoutResets clears each configuration's replay count: it depends on
// how many rounds a prepared design has served, not on the lane.
func withoutResets(s *flow.SimResult) *flow.SimResult {
	c := *s
	c.Runs = append(c.Runs[:0:0], s.Runs...)
	for i := range c.Runs {
		c.Runs[i].Stats.Resets = 0
	}
	return &c
}

// FuzzGangLaneMatchesSingleLane is gang lane == sequential run on
// inputs nobody picked: fuzzed words, extremes included, seed 1-8
// lanes of a prepared design, and each lockstep lane must equal its own
// one-lane compiled round in cycles, states, sinks, memories and engine
// counters. The seed corpus lives in testdata/fuzz/.
func FuzzGangLaneMatchesSingleLane(f *testing.F) {
	designs := loadFuzzDesigns(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fd, lanes := fuzzLanes(data, designs)
		gang, err := fd.gang.SimulateGang(lanes)
		if err != nil {
			t.Fatal(err)
		}
		for l, seeds := range lanes {
			for _, id := range fd.mems {
				words, ok := seeds[id]
				if !ok {
					words = fd.src.Inputs[id]
				}
				if err := fd.single.SetSeed(id, words); err != nil {
					t.Fatal(err)
				}
			}
			one, err := fd.single.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameOutcome(withoutResets(gang[l]), withoutResets(one), true); err != nil {
				t.Fatalf("%s lane %d of %d vs its one-lane run: %v", fd.src.Name, l, len(lanes), err)
			}
		}
	})
}
