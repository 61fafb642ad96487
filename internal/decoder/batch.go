package decoder

import (
	"math/bits"

	"repro/internal/circuit"
)

// BatchLanes is the number of shot lanes in one word of the batch simulator
// (internal/sim/batch); derived from the single source of lane width in
// package circuit so this package does not import the simulator.
const BatchLanes = circuit.WordLanes

// BatchDecoder is the batched counterpart of Engine, implemented by both the
// MWPM and union-find decoders: decode all (or a range of) the lanes of a
// collector in one call, returning the predicted logical-flip bits packed
// one per lane — the same layout the batch simulator's ObservableFlip uses,
// so batched prediction and ground truth compare with one XOR.
//
// Implementations reuse per-instance scratch arenas, so a BatchDecoder is
// not safe for concurrent calls on one instance; to decode disjoint lane
// ranges of one collector concurrently, give each goroutine its own
// instance (construction is cheap — the heavy precompute is cached and
// shared).
type BatchDecoder interface {
	Engine
	// DecodeBatch decodes every lane, lane i's prediction in bit i.
	DecodeBatch(c *BatchCollector) uint64
	// DecodeLanes decodes lanes [lo, hi) only; bits outside the range are 0.
	DecodeLanes(c *BatchCollector, lo, hi int) uint64
}

// Compile-time checks that both engines implement the batched interface.
var (
	_ BatchDecoder = (*Decoder)(nil)
	_ BatchDecoder = (*UnionFind)(nil)
)

// StabMap maps one stabilizer of the memory basis to its slot in the batch
// simulator's event-word array: Idx is the stabilizer index (the word array
// is indexed by stabilizer), Ord the dense kind ordinal decoders consume.
type StabMap struct {
	Idx, Ord int32
}

// BatchCollector fans the batch simulator's per-stabilizer detection-event
// words out into the per-lane event lists the decoding engines consume. It
// owns one reusable event buffer per lane, so the steady-state experiment
// loop performs no per-shot allocations while gathering events.
type BatchCollector struct {
	lanes [BatchLanes][]Event
}

// NewBatchCollector returns a collector with empty per-lane buffers.
func NewBatchCollector() *BatchCollector {
	c := &BatchCollector{}
	for i := range c.lanes {
		c.lanes[i] = make([]Event, 0, 16)
	}
	return c
}

// Reset truncates every lane's event list for a new batch.
func (c *BatchCollector) Reset() {
	for i := range c.lanes {
		c.lanes[i] = c.lanes[i][:0]
	}
}

// Add appends Event{Z: z, Round: round} to every lane whose bit is set in
// word. Cost is proportional to the number of set bits, which is small at
// physical error rates of interest.
func (c *BatchCollector) Add(word uint64, z, round int) {
	for ; word != 0; word &= word - 1 {
		lane := bits.TrailingZeros64(word)
		c.lanes[lane] = append(c.lanes[lane], Event{Z: z, Round: round})
	}
}

// AddWideWords fans one round's detection-event words out to the lanes: for
// every mapped stabilizer whose word has active bits, the corresponding
// kind-ordinal event is appended to each set lane. The words are the wide
// engine's flat stride-`stride` event planes, and the collector takes
// sub-word `sub` (the 64 lanes of one work unit) of each mapped stabilizer,
// reading words[Idx*stride+sub]; stride 1, sub-word 0 reads a single-word
// engine's planes. Collectors stay one per 64-lane unit, so everything
// downstream of the sim→decode boundary is untouched by block width. This
// is the single extraction point of the batch worker, for both the
// per-round and final detector layers.
func (c *BatchCollector) AddWideWords(words []uint64, stride, sub int, m []StabMap, round int, active uint64) {
	for _, ks := range m {
		if word := words[int(ks.Idx)*stride+sub] & active; word != 0 {
			c.Add(word, int(ks.Ord), round)
		}
	}
}

// Lane returns lane i's accumulated events, aliasing the internal buffer.
func (c *BatchCollector) Lane(i int) []Event { return c.lanes[i] }
