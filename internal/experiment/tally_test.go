package experiment

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

func jsonRoundTrip(in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func tallyCfg(pol core.Kind, shots int) Config {
	return Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: shots, Seed: 11,
		Policy: pol, Workers: 2}
}

// TestTallyMergePartition is the exact-merge property test: N partial runs
// over disjoint unit ranges must merge to the identical tally of one full
// run at the same seed — bit-for-bit, not just statistically — and Wilson
// bounds recomputed from the merged counts must match the full run's.
func TestTallyMergePartition(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"batch-static", tallyCfg(core.PolicyAlways, 4*64)},
		{"batch-adaptive", tallyCfg(core.PolicyEraser, 4*64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			units := tc.cfg.NumUnits()
			full := RunUnits(tc.cfg, 0, units)

			// Partition [0, units) into three uneven ranges, run each
			// independently and merge out of order.
			cuts := []int{0, units / 3, units / 2, units}
			parts := make([]*Tally, 0, 3)
			for i := 0; i+1 < len(cuts); i++ {
				parts = append(parts, RunUnits(tc.cfg, cuts[i], cuts[i+1]))
			}
			merged := parts[2].Clone()
			if err := merged.Merge(parts[0]); err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(parts[1]); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(full, merged) {
				t.Fatalf("merged partition differs from full run:\nfull   %+v\nmerged %+v", full, merged)
			}

			fullRes := full.ResultFor(tc.cfg)
			lo, hi := stats.Wilson(merged.LogicalErrors, merged.Shots, 1.96)
			if lo != fullRes.LERLow || hi != fullRes.LERHigh {
				t.Fatalf("Wilson bounds from merged counts [%v, %v] != full run [%v, %v]",
					lo, hi, fullRes.LERLow, fullRes.LERHigh)
			}
			if got := merged.HalfWidth(1.96); got != (hi-lo)/2 {
				t.Fatalf("HalfWidth %v != (hi-lo)/2 %v", got, (hi-lo)/2)
			}
		})
	}
}

// TestRunUnitsFarRangeAllocation: a RunUnits call keeps only its own units'
// seeds, so four units far into the unit space allocate about what the
// first four do, not an extra 8 bytes per skipped unit.
func TestRunUnitsFarRangeAllocation(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 2, P: 2e-3, Seed: 5, Policy: core.PolicyAlways, Workers: 1}
	alloc := func(lo, hi int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunUnits(cfg, lo, hi)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(0, 4) // warm the decoder's shared tables
	near, far := alloc(0, 4), alloc(65536, 65540)
	if far > near+64<<10 {
		t.Fatalf("RunUnits(65536, 65540) allocated %d B, RunUnits(0, 4) %d B", far, near)
	}
}

// TestRunEqualsUnitTally: Run must be exactly the tally path at the
// config's own shot count.
func TestRunEqualsUnitTally(t *testing.T) {
	cfg := tallyCfg(core.PolicyEraserM, 2*64)
	res := Run(cfg)
	unit := RunUnits(cfg, 0, cfg.NumUnits()).ResultFor(cfg)
	if res.LogicalErrors != unit.LogicalErrors || res.Shots != unit.Shots ||
		res.TruePos != unit.TruePos || res.LRCsPerRound != unit.LRCsPerRound {
		t.Fatalf("Run %+v != RunUnits-derived %+v", res, unit)
	}
	if !sameSeries(res.LPRTotal, unit.LPRTotal) {
		t.Fatal("LPR series diverged between Run and RunUnits")
	}
}

func TestTallyMergeRejectsOverlapAndShapeMismatch(t *testing.T) {
	cfg := tallyCfg(core.PolicyAlways, 3*64)
	a := RunUnits(cfg, 0, 2)
	b := RunUnits(cfg, 1, 3)
	if err := a.Clone().Merge(b); err == nil {
		t.Fatal("overlapping unit sets merged without error")
	}
	short := cfg
	short.Cycles = 1
	c := RunUnits(short, 3, 4)
	if err := a.Clone().Merge(c); err == nil {
		t.Fatal("mismatched round counts merged without error")
	}
	narrow := NewTally(a.Rounds, 1)
	narrow.Covered.Add(200)
	if err := a.Clone().Merge(narrow); err == nil {
		t.Fatal("mismatched unit widths merged without error")
	}
}

// TestTallyMergeRejectsMalformedLPR: LPR series whose length differs from
// Rounds, on either side of a merge, are an error rather than an index
// panic, and leave the receiver's series untouched.
func TestTallyMergeRejectsMalformedLPR(t *testing.T) {
	cfg := tallyCfg(core.PolicyAlways, 2*64)
	a := RunUnits(cfg, 0, 1)
	b := RunUnits(cfg, 1, 2)
	for _, tc := range []struct {
		name      string
		recv, arg func(*Tally)
	}{
		{name: "short-arg", arg: func(t *Tally) { t.LPRDataNum = t.LPRDataNum[:2] }},
		{name: "long-arg", arg: func(t *Tally) { t.LPRParityNum = append(t.LPRParityNum, 1) }},
		{name: "short-receiver", recv: func(t *Tally) { t.LPRParityNum = t.LPRParityNum[:1] }},
		{name: "nil-receiver", recv: func(t *Tally) { t.LPRDataNum = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv, arg := a.Clone(), b.Clone()
			if tc.recv != nil {
				tc.recv(recv)
			}
			if tc.arg != nil {
				tc.arg(arg)
			}
			before := recv.Clone()
			if err := recv.Merge(arg); err == nil {
				t.Fatal("malformed LPR series merged without error")
			}
			if !reflect.DeepEqual(before, recv) {
				t.Fatal("failed merge modified the receiver")
			}
		})
	}
}

func TestTallyJSONRoundTrip(t *testing.T) {
	cfg := tallyCfg(core.PolicyAlways, 2*64)
	orig := RunUnits(cfg, 0, 2)
	var back Tally
	if err := jsonRoundTrip(orig, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, &back) {
		t.Fatalf("tally did not survive JSON round trip:\norig %+v\nback %+v", orig, &back)
	}
}

func TestUnitSetProperties(t *testing.T) {
	f := func(idxs []uint16, probe uint16) bool {
		var s UnitSet
		seen := map[int]bool{}
		for _, i := range idxs {
			s.Add(int(i) % 2048)
			seen[int(i)%2048] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		p := int(probe) % 2048
		if s.Contains(p) != seen[p] {
			return false
		}
		// FirstGap returns an uncovered index at or after the probe, with
		// everything in between covered.
		g := s.FirstGap(p)
		if s.Contains(g) || g < p {
			return false
		}
		for i := p; i < g; i++ {
			if !s.Contains(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigKeySeparatesConfigsAndIgnoresVolume(t *testing.T) {
	base := tallyCfg(core.PolicyEraser, 256)
	key := Config.Key
	k0 := key(base)

	// Shots and Workers choose how much/how fast, not what: same key.
	more := base
	more.Shots = 4096
	more.Workers = 7
	if key(more) != k0 {
		t.Fatal("Shots/Workers changed the content key; tallies could never extend")
	}

	// Anything that changes unit content must change the key.
	for name, mutate := range map[string]func(*Config){
		"distance": func(c *Config) { c.Distance = 5 },
		"cycles":   func(c *Config) { c.Cycles = 3 },
		"policy":   func(c *Config) { c.Policy = core.PolicyAlways },
		"seed":     func(c *Config) { c.Seed++ },
		"p":        func(c *Config) { c.P = 3e-3 },
	} {
		c := base
		mutate(&c)
		if key(c) == k0 {
			t.Fatalf("%s change did not change the content key", name)
		}
	}
}

// TestValidateCounts: negative cycle, round and shot counts, round counts
// above MaxRounds (directly or as cycles × distance, without wrapping) and
// distances above surfacecode.MaxDistance are rejected with the field
// named, instead of crashing a worker (a negative round count reaches
// NewTally), silently running the 10-cycle default (a negative Rounds) or
// allocating without bound (a 2^40-round tally, a d=1001 layout and
// decoder). Zero keeps its defaulting meaning.
func TestValidateCounts(t *testing.T) {
	base := tallyCfg(core.PolicyEraser, 64)
	bad := map[string]struct {
		set  func(*Config)
		want string
	}{
		"negative cycles":              {func(c *Config) { c.Cycles = -1 }, "cycles"},
		"negative rounds":              {func(c *Config) { c.Rounds = -5 }, "rounds"},
		"negative rounds, zero cycles": {func(c *Config) { c.Rounds, c.Cycles = -1, 0 }, "rounds"},
		"negative cycles under rounds": {func(c *Config) { c.Rounds, c.Cycles = 6, -1 }, "cycles"},
		"negative shots":               {func(c *Config) { c.Shots = -5 }, "shots"},
		"rounds above the cap":         {func(c *Config) { c.Rounds = MaxRounds + 1 }, "rounds"},
		"2^40 rounds":                  {func(c *Config) { c.Rounds = 1 << 40 }, "rounds"},
		"huge rounds and cycles":       {func(c *Config) { c.Rounds, c.Cycles = math.MaxInt, math.MaxInt }, "rounds"},
		"cycles x distance above cap":  {func(c *Config) { c.Cycles = MaxRounds/3 + 1 }, "cycles"},
		"cycles x distance would wrap": {func(c *Config) { c.Cycles = math.MaxInt/3 + 1 }, "cycles"},
		"largest int cycle count":      {func(c *Config) { c.Cycles = math.MaxInt }, "cycles"},
		"distance above the cap":       {func(c *Config) { c.Distance = surfacecode.MaxDistance + 2 }, "distance"},
		"distance 1001, 10 cycles":     {func(c *Config) { c.Distance, c.Cycles = 1001, 10 }, "distance"},
	}
	for name, tc := range bad {
		cfg := base
		tc.set(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", name, err, tc.want)
		}
	}
	good := map[string]func(*Config){
		"zero cycles (10-cycle default)": func(c *Config) { c.Cycles = 0 },
		"zero shots":                     func(c *Config) { c.Shots = 0 },
		"rounds override":                func(c *Config) { c.Rounds = 7 },
		"rounds at the cap":              func(c *Config) { c.Rounds = MaxRounds },
		"rounds override huge cycles":    func(c *Config) { c.Rounds, c.Cycles = 9, math.MaxInt },
		"largest cycle count":            func(c *Config) { c.Cycles = MaxRounds / 3 },
		"largest distance, default":      func(c *Config) { c.Distance, c.Cycles = surfacecode.MaxDistance, 0 },
	}
	for name, set := range good {
		cfg := base
		set(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cfg.NumRounds() < 1 {
			t.Errorf("%s: valid config resolves to %d rounds", name, cfg.NumRounds())
		}
	}
}
