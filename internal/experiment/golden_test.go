package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from the current runner")

// goldenPath holds the pinned tally hashes; see TestGoldenTallies.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenFile is the on-disk corpus. KeySchema records the Config.Key schema
// version the keys were computed under: a change to any random stream must
// ship with a key-schema bump, which moves every key, so the stale corpus
// then fails as "missing" until it is regenerated with -update.
type goldenFile struct {
	KeySchema int                    `json:"key_schema"`
	Grid      string                 `json:"grid"`
	Entries   map[string]goldenEntry `json:"entries"`
}

// goldenEntry holds the SHA-256 of the canonical (JSON) tally of each probe
// range of one config, plus a readable label for diffs.
type goldenEntry struct {
	Config  string            `json:"config"`
	Tallies map[string]string `json:"tallies"`
}

// goldenProbes are the unit ranges each config is pinned on. They cover a
// whole 4-unit block, a range with a ragged edge on both sides, a lone unit
// in the middle of a block, and a Run whose last unit is cut by the shot cap.
var goldenProbes = []struct {
	name string
	run  func(cfg Config) *Tally
}{
	{"units[0,4)", func(cfg Config) *Tally { return RunUnits(cfg, 0, 4) }},
	{"units[2,7)", func(cfg Config) *Tally { return RunUnits(cfg, 2, 7) }},
	{"units[5,6)", func(cfg Config) *Tally { return RunUnits(cfg, 5, 6) }},
	{"run(shots=100)", func(cfg Config) *Tally {
		cfg.Shots = 100
		t, _ := runUnitRange(context.Background(), cfg, 0, cfg.NumUnits(), cfg.Shots)
		return t
	}},
}

// goldenConfigs is the pinned grid: every policy × LRC protocol × device
// profile × distance, at 2 cycles and p = 3e-3 on one worker.
func goldenConfigs(t *testing.T) []Config {
	t.Helper()
	const p = 3e-3
	var cfgs []Config
	for _, d := range []int{3, 5} {
		hotspot, err := device.Hotspot(d, p, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		drift, err := device.Drift(d, p, 0.5, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range []*device.Profile{nil, hotspot, drift} {
			for _, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways,
				core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal} {
				for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
					cfgs = append(cfgs, Config{Distance: d, Cycles: 2, P: p, Seed: 2023,
						Policy: pol, Protocol: proto, Profile: prof, Workers: 1})
				}
			}
		}
	}
	return cfgs
}

func tallyHash(t *testing.T, tl *Tally) string {
	t.Helper()
	data, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGoldenTallies pins the exact tallies of a small config grid. Any
// change to a random stream, to the order of draws, or to the accounting
// fails here; an intended change bumps the key schema in Config.Key and
// regenerates the corpus with
//
//	go test ./internal/experiment -run TestGoldenTallies -update
func TestGoldenTallies(t *testing.T) {
	got := goldenFile{
		KeySchema: keySchema,
		Grid:      "5 policies x {swap, dqlr} x {uniform, hotspot, drift} x d{3,5}; 2 cycles, p=3e-3, seed 2023, 1 worker",
		Entries:   map[string]goldenEntry{},
	}
	for _, cfg := range goldenConfigs(t) {
		key := cfg.Key()
		e := goldenEntry{Config: cfg.Describe(), Tallies: map[string]string{}}
		for _, pr := range goldenProbes {
			e.Tallies[pr.name] = tallyHash(t, pr.run(cfg))
		}
		got.Entries[key] = e
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got.Entries), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if want.KeySchema != got.KeySchema {
		t.Fatalf("corpus records key schema %d, test expects %d", want.KeySchema, got.KeySchema)
	}
	if len(want.Entries) != len(got.Entries) {
		t.Errorf("corpus has %d entries, grid has %d", len(want.Entries), len(got.Entries))
	}
	for key, g := range got.Entries {
		w, ok := want.Entries[key]
		if !ok {
			t.Errorf("%s: key %s missing from the corpus (key schema changed? regenerate with -update)", g.Config, key)
			continue
		}
		for _, pr := range goldenProbes {
			if g.Tallies[pr.name] != w.Tallies[pr.name] {
				t.Errorf("%s: %s tally hash %s, corpus has %s", g.Config, pr.name, g.Tallies[pr.name], w.Tallies[pr.name])
			}
		}
	}
}
