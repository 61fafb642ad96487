package decoder

import (
	"fmt"
	"slices"
	"sync"
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

// privateDecoder returns a memory-Z decoder on its own table and free
// lists, which no other decoder shares, so its scratch starts empty.
func privateDecoder(l *surfacecode.Layout, cfg Config) *Decoder {
	tab := buildSpaceTable(l, cfg, surfacecode.KindZ)
	tab.free = new(freeLists)
	return &Decoder{tab: tab}
}

// TestDecodeBatchMatchesSerial: DecodeLanes over all lanes of a shared
// collector must equal, bit for bit, the serial Decode of each lane's event
// list — on the same handle, whose table's scratch every call reuses, and
// on a handle with private free lists whose scratch starts empty each trial.
// Also checks DecodeLanes masks bits outside its range.
func TestDecodeBatchMatchesSerial(t *testing.T) {
	t.Run("mwpm", func(t *testing.T) {
		l := surfacecode.MustNew(5)
		const rounds = 6
		rng := stats.NewRNG(99, 7)
		dec := New(l, Config{})
		for trial := 0; trial < 8; trial++ {
			c, serial := randomBatch(rng, l.NumZ(), rounds, 0.04)
			var want uint64
			ref := privateDecoder(l, Config{}) // no scratch carried over
			for lane := 0; lane < BatchLanes; lane++ {
				want |= uint64(ref.Decode(serial[lane])) << uint(lane)
			}
			if got := dec.DecodeLanes(c, 0, BatchLanes); got != want {
				t.Fatalf("trial %d: DecodeLanes = %#x, want %#x (xor %#x)",
					trial, got, want, got^want)
			}
			// Interleave serial decodes on the same handle, then batch
			// again: scratch reuse must not leak state between modes.
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
// 64-lane batch with zero heap allocations, and so does the first call of a
// fresh handle on the warmed table: the scratch belongs to the table, not
// to the handle that grew it.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	l := surfacecode.MustNew(5)
	const rounds = 6
	c, _ := randomBatch(stats.NewRNG(5, 3), l.NumZ(), rounds, 0.04)
	t.Run("mwpm", func(t *testing.T) {
		dec := New(l, Config{})
		for i := 0; i < 3; i++ { // grow arenas to steady state
			dec.DecodeLanes(c, 0, BatchLanes)
		}
		allocs := testing.AllocsPerRun(50, func() { dec.DecodeLanes(c, 0, BatchLanes) })
		if allocs != 0 {
			t.Fatalf("steady-state DecodeLanes allocates %v per batch, want 0", allocs)
		}
	})
	t.Run("fresh-handle", func(t *testing.T) {
		New(l, Config{}).DecodeLanes(c, 0, BatchLanes) // one handle warms the table
		const runs = 20
		fresh := make([]*Decoder, runs+1) // AllocsPerRun calls once more to warm up
		for i := range fresh {
			fresh[i] = New(l, Config{})
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			fresh[next].DecodeLanes(c, 0, BatchLanes)
			next++
		})
		if allocs != 0 {
			t.Fatalf("a fresh handle's first DecodeLanes allocates %v per batch, want 0", allocs)
		}
	})
}

// TestCollectorReuse: a new collector starts with NewBatchCollector's lane
// buffers, and a released one comes back from the next Collector call
// empty, with the buffers it grew.
func TestCollectorReuse(t *testing.T) {
	dec := privateDecoder(surfacecode.MustNew(5), Config{})
	c := dec.Collector()
	for lane := range c.lanes {
		if len(c.lanes[lane]) != 0 || cap(c.lanes[lane]) != cap(NewBatchCollector().lanes[lane]) {
			t.Fatalf("new collector lane %d: len %d cap %d", lane, len(c.lanes[lane]), cap(c.lanes[lane]))
		}
	}
	for r := 0; r < 40; r++ {
		c.Add(^uint64(0), r%12, r)
	}
	grown := cap(c.lanes[0])
	dec.Release(c)
	if got := dec.Collector(); got != c || len(got.lanes[0]) != 0 || cap(got.lanes[0]) != grown {
		t.Fatalf("reused collector: same %v, len %d, cap %d (want 0, %d)", got == c, len(got.lanes[0]), cap(got.lanes[0]), grown)
	}
}

// TestFreeListsSharedPerLayout: tables that differ only in weights share
// one set of free lists, so a sweep over many device profiles keeps one set
// of arenas; another distance or kind has its own.
func TestFreeListsSharedPerLayout(t *testing.T) {
	l5, l7 := surfacecode.MustNew(5), surfacecode.MustNew(7)
	free := New(l5, Config{}).tab.free
	for _, pr := range flipPriors {
		if New(l5, pr.cfg(t, l5)).tab.free != free {
			t.Errorf("d=5 %s priors: free lists not shared with the unit-weight table", pr.name)
		}
	}
	if New(l7, Config{}).tab.free == free || NewForKind(l5, Config{}, surfacecode.KindX).tab.free == free {
		t.Error("d=7 or memory-X tables share the d=5 memory-Z free lists")
	}
}

// TestKindStabMaps: the shared stabilizer map lists every stabilizer of the
// kind with its ordinal, in stabilizer order, and every call of a distance
// and kind returns the same slice, before or after a decoder is built.
func TestKindStabMaps(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		for _, kind := range []surfacecode.Kind{surfacecode.KindZ, surfacecode.KindX} {
			var want []StabMap
			for i, s := range l.Stabilizers {
				if s.Kind == kind {
					want = append(want, StabMap{Idx: int32(i), Ord: int32(len(want))})
				}
			}
			got := KindStabMaps(l, kind)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d kind %v: map %v, want %v", d, kind, got, want)
			}
			NewForKind(l, Config{}, kind)
			if again := KindStabMaps(l, kind); &again[0] != &got[0] {
				t.Errorf("d=%d kind %v: a second call built another map", d, kind)
			}
		}
	}
}

// TestDecoderConcurrentUse: one Decoder shared by four goroutines, each
// decoding its own share of TestGoldenFlips' event sets through its own
// Collector, predicts exactly the flips of serial decoding. Each goroutine
// decodes a collector in 16-lane calls, so the table's free lists see many
// interleaved pops and pushes. Afterwards the free lists keep at most one
// scratch arena and one collector per goroutine. The sets are the first
// half of each seed-1 case, which keeps ten runs under -race short.
func TestDecoderConcurrentUse(t *testing.T) {
	const workers, calls = 4, 4
	for _, dist := range []int{5, 7} {
		l := surfacecode.MustNew(dist)
		rounds := dist * dist
		for _, pr := range flipPriors {
			cfg := pr.cfg(t, l)
			rng := stats.NewRNG(1, uint64(dist))
			sets := make([][]Event, flipSets/2)
			for k := range sets {
				sets[k] = denseEvents(rng, l.NumZ(), rounds)
			}
			want := make([]uint8, len(sets))
			ref := New(l, cfg)
			for k, ev := range sets {
				want[k] = ref.Decode(ev)
			}

			// The shared handle gets private free lists, so they start empty
			// and the bound below counts only this test's goroutines.
			dec := privateDecoder(l, cfg)
			name := fmt.Sprintf("d%d-%s", dist, pr.name)
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := dec.Collector()
					defer dec.Release(c)
					// Worker w takes every workers-th batch of 64 sets.
					for lo := w * BatchLanes; lo < len(sets); lo += workers * BatchLanes {
						hi := min(lo+BatchLanes, len(sets))
						c.Reset()
						for lane, ev := range sets[lo:hi] {
							for _, e := range ev {
								c.Add(1<<uint(lane), e.Z, e.Round)
							}
						}
						var got uint64
						for q := 0; q < calls; q++ {
							got |= dec.DecodeLanes(c, q*BatchLanes/calls, min((q+1)*BatchLanes/calls, hi-lo))
						}
						for k := lo; k < hi; k++ {
							if uint8(got>>uint(k-lo))&1 != want[k] {
								errs[w] = fmt.Errorf("%s: set %d predicted %d concurrently, %d serially", name, k, got>>uint(k-lo)&1, want[k])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if n, m := len(dec.tab.free.scratch.items), len(dec.tab.free.cols.items); n > workers || m > workers {
				t.Fatalf("%s: free lists keep %d scratch arenas and %d collectors after %d concurrent users", name, n, m, workers)
			}
		}
	}
}
