package decoder

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// TestBatchCollectorReuse: Reset truncates every lane without shrinking its
// buffer, and Add/Lane round-trip events per set bit.
func TestBatchCollectorReuse(t *testing.T) {
	c := NewBatchCollector()
	c.Add(0b1010, 3, 1)
	c.Add(0b0010, 4, 2)
	if got := c.Lane(0); len(got) != 0 {
		t.Fatalf("lane 0 got %v events, want none", got)
	}
	if got := c.Lane(1); len(got) != 2 || got[0] != (Event{Z: 3, Round: 1}) ||
		got[1] != (Event{Z: 4, Round: 2}) {
		t.Fatalf("lane 1 = %v, want [{3 1} {4 2}]", got)
	}
	if got := c.Lane(3); len(got) != 1 || got[0] != (Event{Z: 3, Round: 1}) {
		t.Fatalf("lane 3 = %v, want [{3 1}]", got)
	}
	caps := [BatchLanes]int{}
	for i := range caps {
		caps[i] = cap(c.Lane(i))
	}
	c.Reset()
	for i := 0; i < BatchLanes; i++ {
		if len(c.Lane(i)) != 0 {
			t.Fatalf("lane %d not empty after Reset", i)
		}
		if cap(c.Lane(i)) != caps[i] {
			t.Fatalf("lane %d capacity changed on Reset: %d -> %d",
				i, caps[i], cap(c.Lane(i)))
		}
	}
	c.Add(1<<63, 7, 5)
	if got := c.Lane(63); len(got) != 1 || got[0] != (Event{Z: 7, Round: 5}) {
		t.Fatalf("lane 63 after reuse = %v, want [{7 5}]", got)
	}
}

// TestBatchCollectorAddWords: the word fan-out must reproduce, per lane,
// exactly the syndrome a scalar loop over (stabilizer, lane) bits builds —
// including masking by the active-lane word — from planes of one word per
// stabilizer (stride 1) and from one sub-word of the wide engine's flat
// planes.
func TestBatchCollectorAddWords(t *testing.T) {
	m := []StabMap{{Idx: 2, Ord: 0}, {Idx: 5, Ord: 1}, {Idx: 0, Ord: 2}}
	const active = uint64(0x0fff_ffff_ffff_fff0) // drop lanes 0-3 and 60-63
	for _, sh := range []struct{ stride, sub int }{{1, 0}, {4, 2}} {
		words := make([]uint64, 6*sh.stride)
		rng := stats.NewRNG(11, 0)
		for i := range words {
			words[i] = rng.Uint64()
		}

		c := NewBatchCollector()
		c.AddWideWords(words, sh.stride, sh.sub, m, 4, active)

		var want [BatchLanes][]Event
		for lane := 0; lane < BatchLanes; lane++ {
			if active&(1<<uint(lane)) == 0 {
				continue
			}
			for _, ks := range m {
				if words[int(ks.Idx)*sh.stride+sh.sub]&(1<<uint(lane)) != 0 {
					want[lane] = append(want[lane], Event{Z: int(ks.Ord), Round: 4})
				}
			}
		}
		for lane := 0; lane < BatchLanes; lane++ {
			got := c.Lane(lane)
			if len(got) != len(want[lane]) {
				t.Fatalf("stride %d sub %d lane %d: %d events, want %d", sh.stride, sh.sub, lane, len(got), len(want[lane]))
			}
			for i := range got {
				if got[i] != want[lane][i] {
					t.Fatalf("stride %d sub %d lane %d event %d = %v, want %v", sh.stride, sh.sub, lane, i, got[i], want[lane][i])
				}
			}
		}
	}
}

// TestBatchCollectorReuseAllocs: once lane buffers have grown, a
// Reset+AddWideWords cycle allocates nothing.
func TestBatchCollectorReuseAllocs(t *testing.T) {
	m := []StabMap{{Idx: 0, Ord: 0}, {Idx: 1, Ord: 1}, {Idx: 2, Ord: 2}}
	words := []uint64{0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef, ^uint64(0)}
	c := NewBatchCollector()
	for i := 0; i < 3; i++ { // warm the lane buffers to steady-state capacity
		c.Reset()
		for r := 1; r <= 8; r++ {
			c.AddWideWords(words, 1, 0, m, r, ^uint64(0))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		for r := 1; r <= 8; r++ {
			c.AddWideWords(words, 1, 0, m, r, ^uint64(0))
		}
	})
	if allocs != 0 {
		t.Fatalf("collector reuse allocates %v per batch, want 0", allocs)
	}
}

// randomBatch fills a collector (and parallel per-lane event slices) with a
// random but decodable syndrome: each lane gets an independent draw of
// per-round detection events over nz stabilizer ordinals and rounds
// 1..rounds+1.
func randomBatch(rng *stats.RNG, nz, rounds int, density float64) (*BatchCollector, [][]Event) {
	c := NewBatchCollector()
	serial := make([][]Event, BatchLanes)
	for lane := 0; lane < BatchLanes; lane++ {
		for r := 1; r <= rounds+1; r++ {
			for z := 0; z < nz; z++ {
				if rng.Float64() < density {
					c.Add(1<<uint(lane), z, r)
					serial[lane] = append(serial[lane], Event{Z: z, Round: r})
				}
			}
		}
	}
	return c, serial
}

// TestDecodeBatchMatchesSerial: DecodeLanes over all lanes of a shared
// collector must equal, bit for bit, the serial Decode of each lane's event
// list — on the same (arena-reusing) instance and on a fresh one. Also
// checks DecodeLanes masks bits outside its range.
func TestDecodeBatchMatchesSerial(t *testing.T) {
	t.Run("mwpm", func(t *testing.T) {
		l := surfacecode.MustNew(5)
		const rounds = 6
		rng := stats.NewRNG(99, 7)
		dec := New(l, Config{})
		for trial := 0; trial < 8; trial++ {
			c, serial := randomBatch(rng, l.NumZ(), rounds, 0.04)
			var want uint64
			ref := New(l, Config{}) // fresh instance: no arena state carried over
			for lane := 0; lane < BatchLanes; lane++ {
				want |= uint64(ref.Decode(serial[lane])) << uint(lane)
			}
			if got := dec.DecodeLanes(c, 0, BatchLanes); got != want {
				t.Fatalf("trial %d: DecodeLanes = %#x, want %#x (xor %#x)",
					trial, got, want, got^want)
			}
			// Interleave serial decodes on the same instance, then batch
			// again: arena reuse must not leak state between modes.
			for lane := 0; lane < 4; lane++ {
				if got := dec.Decode(serial[lane]); got != uint8(want>>uint(lane))&1 {
					t.Fatalf("trial %d: serial re-decode lane %d diverged", trial, lane)
				}
			}
			if got := dec.DecodeLanes(c, 0, BatchLanes); got != want {
				t.Fatalf("trial %d: DecodeLanes after serial interleave = %#x, want %#x",
					trial, got, want)
			}
			mask := (uint64(1)<<48 - 1) &^ (uint64(1)<<16 - 1)
			if got := dec.DecodeLanes(c, 16, 48); got != want&mask {
				t.Fatalf("trial %d: DecodeLanes[16,48) = %#x, want %#x",
					trial, got, want&mask)
			}
		}
	})
}

// TestDecodeSteadyStateAllocs: after warm-up, the decoder decodes a full
// 64-lane batch with zero heap allocations.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	t.Run("mwpm", func(t *testing.T) {
		l := surfacecode.MustNew(5)
		const rounds = 6
		c, _ := randomBatch(stats.NewRNG(5, 3), l.NumZ(), rounds, 0.04)
		dec := New(l, Config{})
		for i := 0; i < 3; i++ { // grow arenas to steady state
			dec.DecodeLanes(c, 0, BatchLanes)
		}
		allocs := testing.AllocsPerRun(50, func() { dec.DecodeLanes(c, 0, BatchLanes) })
		if allocs != 0 {
			t.Fatalf("steady-state DecodeLanes allocates %v per batch, want 0", allocs)
		}
	})
}
