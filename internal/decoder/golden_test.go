package decoder

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/matching"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

var updateFlips = flag.Bool("update", false, "regenerate testdata/flips.json from the current decoder")

// flipsPath holds the pinned predictions; see TestGoldenFlips.
var flipsPath = filepath.Join("testdata", "flips.json")

// flipsFile is the on-disk corpus: per case, the number of event sets, the
// total event count (a check on the generator) and the predicted flips of
// the sets packed one bit per set, set k in bit k%8 of byte k/8, hex-encoded.
type flipsFile struct {
	Grid  string               `json:"grid"`
	Cases map[string]flipsCase `json:"cases"`
}

type flipsCase struct {
	Sets   int    `json:"sets"`
	Events int    `json:"events"`
	Flips  string `json:"flips"`
}

const flipSets = 512 // event sets per case

// flipPriors are the matching-weight priors the corpus covers: unit
// weights, and the -log-likelihood priors of a hotspot and a drift profile
// (the same generators as the experiment golden corpus). Drift priors make
// the Dijkstra tables asymmetric in the last bit, which is what makes the
// orientation of each pair-weight lookup observable.
var flipPriors = []struct {
	name string
	cfg  func(t *testing.T, l *surfacecode.Layout) Config
}{
	{"uniform", func(*testing.T, *surfacecode.Layout) Config { return Config{} }},
	{"hotspot", func(t *testing.T, l *surfacecode.Layout) Config {
		return profilePriors(t, l, func() (*device.Profile, error) { return device.Hotspot(l.Distance, 1e-3, 2, 6) })
	}},
	{"drift", func(t *testing.T, l *surfacecode.Layout) Config {
		return profilePriors(t, l, func() (*device.Profile, error) { return device.Drift(l.Distance, 1e-3, 0.5, 11) })
	}},
}

// profilePriors returns the decoder config a heterogeneous profile installs
// (the runner's dcfg with DecoderPriors filled in).
func profilePriors(t *testing.T, l *surfacecode.Layout, mk func() (*device.Profile, error)) Config {
	t.Helper()
	p, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	cfg.SpaceWeights, cfg.TimeWeights = r.DecoderPriors(l)
	return cfg
}

// denseEvents draws one seeded event set over nz ordinals and rounds
// 1..rounds+1: a uniform scatter at one of four densities plus up to three
// leak-like time chains (one stabilizer firing on about half the rounds of
// a stretch, with occasional events on the next ordinal). Events come out
// in the collector's (round, ordinal) order; one set in eight is shuffled,
// since Decode accepts events in any order.
func denseEvents(rng *stats.RNG, nz, rounds int) []Event {
	seen := map[Event]bool{}
	var ev []Event
	add := func(z, r int) {
		e := Event{Z: z, Round: r}
		if z >= 0 && z < nz && r >= 1 && r <= rounds+1 && !seen[e] {
			seen[e] = true
			ev = append(ev, e)
		}
	}
	density := []float64{0.004, 0.015, 0.04, 0.07}[rng.IntN(4)]
	for r := 1; r <= rounds+1; r++ {
		for z := 0; z < nz; z++ {
			if rng.Float64() < density {
				add(z, r)
			}
		}
	}
	for c := rng.IntN(4); c > 0; c-- {
		z, r0, n := rng.IntN(nz), 1+rng.IntN(rounds), 4+rng.IntN(24)
		for r := r0; r < r0+n; r++ {
			if rng.Bool(0.5) {
				add(z, r)
			}
			if rng.Bool(0.15) {
				add(z+1, r)
			}
		}
	}
	sort.Slice(ev, func(a, b int) bool {
		if ev[a].Round != ev[b].Round {
			return ev[a].Round < ev[b].Round
		}
		return ev[a].Z < ev[b].Z
	})
	if rng.IntN(8) == 0 {
		for i := len(ev) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			ev[i], ev[j] = ev[j], ev[i]
		}
	}
	return ev
}

// clusterSizes returns the sizes of the clusters Decode matches separately:
// the components of the pairs lighter than boundary-matching both events.
func clusterSizes(d *Decoder, events []Event) []int {
	n := len(events)
	d.events = events
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(v int) int {
		if comp[v] != v {
			comp[v] = find(comp[v])
		}
		return comp[v]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bi, bj := d.BoundaryDistance(events[i].Z), d.BoundaryDistance(events[j].Z)
			if d.pairWeight(i, j) < bi+bj {
				comp[find(i)] = find(j)
			}
		}
	}
	size := map[int]int{}
	for i := range events {
		size[find(i)]++
	}
	var out []int
	for _, s := range size {
		out = append(out, s)
	}
	return out
}

// TestGoldenFlips pins the MWPM decoder's predicted flip on seeded dense
// event sets at d=5 and d=7 under uniform, hotspot and drift priors, with
// clusters on both sides of matching.MaxExact. Any change to the
// matching arithmetic, its tie-breaking or the cluster decomposition that
// moves a single prediction fails here. A change that alters predictions on
// purpose regenerates the corpus with
//
//	go test ./internal/decoder -run TestGoldenFlips -update
func TestGoldenFlips(t *testing.T) {
	got := flipsFile{
		Grid:  fmt.Sprintf("d{5,7} x {uniform, hotspot, drift} x seed{1,2}; %d dense sets each, d*d rounds", flipSets),
		Cases: map[string]flipsCase{},
	}
	for _, dist := range []int{5, 7} {
		l := surfacecode.MustNew(dist)
		rounds := dist * dist
		maxCluster, maxEvents, exactMulti := 0, 0, 0
		for _, pr := range flipPriors {
			dec := New(l, pr.cfg(t, l))
			for seed := uint64(1); seed <= 2; seed++ {
				rng := stats.NewRNG(seed, uint64(dist))
				flips := make([]byte, (flipSets+7)/8)
				total := 0
				for k := 0; k < flipSets; k++ {
					ev := denseEvents(rng, l.NumZ(), rounds)
					total += len(ev)
					maxEvents = max(maxEvents, len(ev))
					for _, s := range clusterSizes(dec, ev) {
						maxCluster = max(maxCluster, s)
						if s > 1 && s <= matching.MaxExact {
							exactMulti++
						}
					}
					flips[k/8] |= dec.Decode(ev) << (k % 8)
				}
				name := fmt.Sprintf("d%d-%s-s%d", dist, pr.name, seed)
				got.Cases[name] = flipsCase{Sets: flipSets, Events: total, Flips: hex.EncodeToString(flips)}
			}
		}
		// The corpus must reach both matchers and shots as dense as a
		// leak-flooded d=7 unit.
		if maxCluster <= matching.MaxExact || exactMulti == 0 {
			t.Errorf("d=%d: largest cluster %d, %d multi-event exact clusters; want both sides of MaxExact",
				dist, maxCluster, exactMulti)
		}
		if dist == 7 && maxEvents < 90 {
			t.Errorf("d=7: densest set has %d events, want ~100", maxEvents)
		}
		t.Logf("d=%d: largest cluster %d, densest set %d events, %d exact clusters of 2..%d events",
			dist, maxCluster, maxEvents, exactMulti, matching.MaxExact)
	}

	if *updateFlips {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(flipsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flipsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got.Cases), flipsPath)
		return
	}

	data, err := os.ReadFile(flipsPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want flipsFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", flipsPath, err)
	}
	if len(want.Cases) != len(got.Cases) {
		t.Errorf("corpus has %d cases, grid has %d", len(want.Cases), len(got.Cases))
	}
	for name, g := range got.Cases {
		w, ok := want.Cases[name]
		switch {
		case !ok:
			t.Errorf("%s: missing from the corpus", name)
		case g.Sets != w.Sets || g.Events != w.Events:
			t.Errorf("%s: generator drew %d sets / %d events, corpus has %d / %d", name, g.Sets, g.Events, w.Sets, w.Events)
		case g.Flips != w.Flips:
			t.Errorf("%s: flips %s, corpus has %s", name, g.Flips, w.Flips)
		}
	}
}

// TestDriftPriorsAsymmetric: the drift corpus cases only pin the
// orientation of pair-weight lookups if the distance table really differs
// between dist[a][b] and dist[b][a] somewhere.
func TestDriftPriorsAsymmetric(t *testing.T) {
	l := surfacecode.MustNew(7)
	dec := New(l, flipPriors[2].cfg(t, l))
	asym := 0
	for a := 0; a < l.NumZ(); a++ {
		for b := 0; b < l.NumZ(); b++ {
			if dec.SpaceDistance(a, b) != dec.SpaceDistance(b, a) {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("d=7 drift priors give a symmetric distance table")
	}
	t.Logf("d=7 drift: %d ordered pairs with dist[a][b] != dist[b][a]", asym)
}
