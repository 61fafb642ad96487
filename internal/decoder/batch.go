package decoder

import (
	"math/bits"

	"repro/internal/circuit"
)

// BatchLanes is the number of shot lanes in one word of the batch simulator
// (internal/sim/batch); derived from the single source of lane width in
// package circuit so this package does not import the simulator.
const BatchLanes = circuit.WordLanes

// StabMap maps one stabilizer of the memory basis to its slot in the batch
// simulator's event-word array: Idx is the stabilizer index (the word array
// is indexed by stabilizer), Ord the dense kind ordinal decoders consume.
type StabMap struct {
	Idx, Ord int32
}

// BatchCollector fans the batch simulator's per-stabilizer detection-event
// words out into the per-lane event lists the decoder consumes, one
// collector per 64-lane unit. It holds one event buffer per lane, which
// Reset truncates without shrinking. Borrow collectors with
// (*Decoder).Collector and hand them back with Release: the decoder's table
// keeps them, grown buffers and all, so the next run gathers events
// without allocating, as the steady-state experiment loop does within a
// run. A collector is used by one goroutine at a time.
type BatchCollector struct {
	lanes [BatchLanes][]Event
}

// NewBatchCollector returns a collector with small per-lane buffers that no
// table keeps. Only tests and the benchmark's replica of the runner's block
// loop (bench/eraserbench) call it; it can leave the API with that replica.
func NewBatchCollector() *BatchCollector {
	c := &BatchCollector{}
	c.init()
	return c
}

// init gives every lane a small empty buffer, so a new collector's first
// unit does not grow its 64 lane buffers up from nothing.
func (c *BatchCollector) init() {
	for i := range c.lanes {
		c.lanes[i] = make([]Event, 0, 16)
	}
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
// reading words[Idx*stride+sub]; stride 1, sub-word 0 reads planes of one
// word per stabilizer. Collectors stay one per 64-lane unit, so everything
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
