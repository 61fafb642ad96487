package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
)

func storeCfg() experiment.Config {
	return experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 3 * 64,
		Seed: 5, Policy: core.PolicyAlways, Workers: 1}
}

func TestStoreMergeExtendsAndPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeCfg()
	key := cfg.Key()

	if s.Get(key) != nil {
		t.Fatal("empty store returned a tally")
	}
	a := experiment.RunUnits(cfg, 0, 2)
	if _, err := s.Merge(key, cfg.Describe(), a); err != nil {
		t.Fatal(err)
	}
	b := experiment.RunUnits(cfg, 2, 3)
	merged, err := s.Merge(key, cfg.Describe(), b)
	if err != nil {
		t.Fatal(err)
	}
	full := experiment.RunUnits(cfg, 0, 3)
	if !reflect.DeepEqual(full, merged) {
		t.Fatalf("store merge != direct run:\nfull   %+v\nmerged %+v", full, merged)
	}

	// A fresh store over the same directory must serve the merged tally from
	// disk — that is what makes warm-cache sweeps survive restarts.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Get(key); !reflect.DeepEqual(full, got) {
		t.Fatalf("reloaded tally differs:\nwant %+v\ngot  %+v", full, got)
	}
	keys, err := s2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys() = %v, want [%s]", keys, key)
	}
}

func TestStoreRejectsOverlappingMerge(t *testing.T) {
	s, err := Open("") // memory-only
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeCfg()
	key := cfg.Key()
	if _, err := s.Merge(key, "", experiment.RunUnits(cfg, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(key, "", experiment.RunUnits(cfg, 1, 3)); err == nil {
		t.Fatal("overlapping merge did not error")
	}
}

func TestStoreGetReturnsCopy(t *testing.T) {
	s, _ := Open("")
	cfg := storeCfg()
	key := cfg.Key()
	if _, err := s.Merge(key, "", experiment.RunUnits(cfg, 0, 1)); err != nil {
		t.Fatal(err)
	}
	got := s.Get(key)
	got.LogicalErrors += 1000
	got.Covered.Add(999)
	if again := s.Get(key); again.LogicalErrors == got.LogicalErrors || again.Covered.Contains(999) {
		t.Fatal("Get returned a live reference into the store")
	}
}

// TestStoreChaosCorruptionReadsAsMissAndRepairs covers the torn-write
// failure model: a truncated JSON entry, a checksum mismatch on an otherwise
// valid entry, and a zero-byte entry must each read as a detected miss, and
// a subsequent run repairs the entry in place.
func TestStoreChaosCorruptionReadsAsMissAndRepairs(t *testing.T) {
	cfg := storeCfg()
	key := cfg.Key()
	full := experiment.RunUnits(cfg, 0, 2)

	corrupt := map[string]func([]byte) []byte{
		"truncated-json": func(d []byte) []byte { return d[:len(d)-10] },
		"zero-byte":      func([]byte) []byte { return nil },
		"checksum-mismatch": func(d []byte) []byte {
			// Insert whitespace inside the tally payload: the file stays
			// valid JSON, but the raw tally bytes no longer match Sum.
			mutated := bytes.Replace(d, []byte(`"shots":`), []byte(`"shots": `), 1)
			if bytes.Equal(mutated, d) {
				t.Fatal("mutation did not apply")
			}
			return mutated
		},
	}
	for name, mutate := range corrupt {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Merge(key, cfg.Describe(), full.Clone()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh store over the damaged file must miss, not serve junk.
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.Get(key); got != nil {
				t.Fatalf("%s entry served as a hit: %+v", name, got)
			}
			// Recompute-and-merge repairs the entry in place...
			if _, err := s2.Merge(key, cfg.Describe(), full.Clone()); err != nil {
				t.Fatal(err)
			}
			// ...and yet another store sees the healthy entry again.
			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := s3.Get(key); !reflect.DeepEqual(full, got) {
				t.Fatalf("repaired entry differs:\nwant %+v\ngot  %+v", full, got)
			}
		})
	}
}

// TestStoreChaosInjectedFaults wires a chaos injector into the store:
// injected read errors surface through Lookup as retryable errors (not
// misses), injected write errors fail the merge without committing memory
// state, and a torn write is detected as a miss by the next cold reader.
func TestStoreChaosInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	cfg := storeCfg()
	key := cfg.Key()
	full := experiment.RunUnits(cfg, 0, 2)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(key, "", full.Clone()); err != nil {
		t.Fatal(err)
	}

	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader.SetFaults(chaos.New(chaos.Config{Seed: 11, StoreReadErr: 1}))
	if _, err := reader.Lookup(key); err == nil {
		t.Fatal("injected read error did not surface through Lookup")
	}
	reader.SetFaults(nil)
	if got, err := reader.Lookup(key); err != nil || !reflect.DeepEqual(full, got) {
		t.Fatalf("entry unreadable after clearing faults: %v", err)
	}

	writer, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writer.SetFaults(chaos.New(chaos.Config{Seed: 11, StoreWriteErr: 1}))
	if _, err := writer.Merge(key, "", full.Clone()); err == nil {
		t.Fatal("injected write error did not fail the merge")
	}
	writer.SetFaults(nil)
	if writer.Get(key) != nil {
		t.Fatal("failed merge left a cached entry behind")
	}

	tornDir := t.TempDir()
	torn, err := Open(tornDir)
	if err != nil {
		t.Fatal(err)
	}
	torn.SetFaults(chaos.New(chaos.Config{Seed: 11, TornWrite: 1}))
	if _, err := torn.Merge(key, "", full.Clone()); err != nil {
		t.Fatal(err)
	}
	// The writer's own memory cache is intact; the damage is on disk.
	if got := torn.Get(key); !reflect.DeepEqual(full, got) {
		t.Fatal("torn write damaged the writer's in-memory tally")
	}
	cold, err := Open(tornDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Get(key); got != nil {
		t.Fatalf("torn entry served to a cold reader: %+v", got)
	}
}

func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	cfg := storeCfg()
	key := cfg.Key()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Get(key) != nil {
		t.Fatal("corrupt entry served as a hit")
	}
	// The service recomputes and overwrites; the store must allow that.
	if _, err := s.Merge(key, "", experiment.RunUnits(cfg, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Get(key) == nil {
		t.Fatal("overwritten entry not served")
	}
}

// entryBytes is persist's file format for t: the compact tally JSON and its
// checksum, so a test can write an entry whose checksum matches whatever
// tally it holds.
func entryBytes(t testing.TB, key string, tl *experiment.Tally) []byte {
	t.Helper()
	tb, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(tb)
	data, err := json.Marshal(Entry{Key: key, Tally: tb, Sum: hex.EncodeToString(sum[:])})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreMalformedTallyIsACorruptMiss: an entry whose checksum matches but
// whose tally has the wrong shape is treated exactly like a checksum miss —
// counted as a detected corruption, recomputed, and repaired by the next
// Merge — instead of being served and panicking in Merge or ResultFor.
func TestStoreMalformedTallyIsACorruptMiss(t *testing.T) {
	cfg := storeCfg()
	key := cfg.Key()
	full := experiment.RunUnits(cfg, 0, 2)
	for _, tc := range []struct {
		name   string
		mutate func(*experiment.Tally)
	}{
		{"short-lpr", func(tl *experiment.Tally) { tl.LPRDataNum = tl.LPRDataNum[:2]; tl.LPRParityNum = tl.LPRParityNum[:2] }},
		{"long-parity-lpr", func(tl *experiment.Tally) { tl.LPRParityNum = append(tl.LPRParityNum, 0) }},
		{"nil-lpr", func(tl *experiment.Tally) { tl.LPRDataNum, tl.LPRParityNum = nil, nil }},
		{"rounds-above-lpr", func(tl *experiment.Tally) { tl.Rounds++ }},
		{"zero-rounds", func(tl *experiment.Tally) { tl.Rounds, tl.LPRDataNum, tl.LPRParityNum = 0, nil, nil }},
		{"negative-rounds", func(tl *experiment.Tally) { tl.Rounds = -3 }},
		{"zero-unit-shots", func(tl *experiment.Tally) { tl.UnitShots = 0 }},
		{"negative-shots", func(tl *experiment.Tally) { tl.Shots = -1 }},
		{"negative-errors", func(tl *experiment.Tally) { tl.LogicalErrors = -1 }},
		{"negative-lrcs", func(tl *experiment.Tally) { tl.LRCs = -1 }},
		{"negative-fn", func(tl *experiment.Tally) { tl.FalseNeg = -1 }},
		{"negative-lpr", func(tl *experiment.Tally) { tl.LPRParityNum[1] = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := full.Clone()
			tc.mutate(bad)
			if _, ok := decodeEntry(entryBytes(t, key, bad)); ok {
				t.Fatal("decodeEntry accepted a malformed tally")
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, key+".json"), entryBytes(t, key, bad), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Get(key); got != nil {
				t.Fatalf("malformed entry served as a hit: %+v", got)
			}
			if _, err := s.Merge(key, cfg.Describe(), full.Clone()); err != nil {
				t.Fatal(err)
			}
			if c := s.Counters(); c.CorruptionsDetected != 1 || c.CorruptionsRepaired != 1 {
				t.Fatalf("corruptions detected/repaired = %d/%d, want 1/1",
					c.CorruptionsDetected, c.CorruptionsRepaired)
			}
			cold, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := cold.Get(key); !reflect.DeepEqual(full, got) {
				t.Fatalf("repaired entry differs:\nwant %+v\ngot  %+v", full, got)
			}
		})
	}
}

// FuzzDecodeEntry: every persisted entry is either rejected, or its tally
// merges with a disjoint tally of the same shape, derives a Result and
// survives a persist/decode round trip, all without a panic. The seed
// corpus in testdata/fuzz holds a valid entry, a malformed tally under a
// matching checksum (LPR series shorter than rounds, which once crashed
// Merge), a negative round count, a checksum miss and truncated JSON.
func FuzzDecodeEntry(f *testing.F) {
	cfg := storeCfg()
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, ok := decodeEntry(data)
		if !ok {
			return
		}
		delta := tl.Clone()
		delta.Covered = experiment.UnitSet{}
		merged := tl.Clone()
		if err := merged.Merge(delta); err != nil {
			t.Fatalf("accepted tally does not merge with its own shape: %v", err)
		}
		merged.ResultFor(cfg)
		back, ok := decodeEntry(entryBytes(t, "k", tl))
		if !ok || !reflect.DeepEqual(tl, back) {
			t.Fatalf("accepted tally does not round-trip:\nin   %+v\nback %+v", tl, back)
		}
	})
}
