// Package store is the content-addressed result store of the sweep
// orchestration subsystem. Entries are keyed by experiment.Config.Key — a
// canonical hash of every config field that determines unit content — and
// hold mergeable tallies (experiment.Tally) plus the set of covered unit
// indexes. Because units are independently seeded, merging a new partial
// tally into a stored one is exact: the store never recomputes, it only
// extends. Entries persist to disk as one JSON file per key (atomic
// write-then-rename) with a content checksum over the tally payload, so
// warm-cache sweeps across process restarts run zero simulation units and a
// torn or bit-rotted entry is a *detected* miss (recomputed and repaired in
// place), never silent data loss.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/experiment"
)

// Entry is the persisted form of one store record.
type Entry struct {
	// Key is the content address (hex SHA-256 of the canonical config).
	Key string `json:"key"`
	// Desc is a human-readable config summary for debugging; it is metadata
	// only and never parsed.
	Desc string `json:"desc,omitempty"`
	// Tally is the mergeable accumulation over the covered units, kept as
	// raw bytes so Sum can be verified before decoding.
	Tally json.RawMessage `json:"tally"`
	// Sum is the hex SHA-256 of the raw Tally bytes. A mismatch (torn write,
	// bit rot, manual edit) demotes the entry to a miss.
	Sum string `json:"sum"`
}

// FaultInjector is the store's chaos hook (see internal/chaos). A nil
// injector — the production configuration — costs one pointer check per
// operation.
type FaultInjector interface {
	// StoreRead may fail a read with a transient I/O error.
	StoreRead(key string) error
	// StoreWrite may fail a persist with a transient I/O error.
	StoreWrite(key string) error
	// CorruptEntry may mutate (tear) the serialized entry that gets
	// published to disk.
	CorruptEntry(key string, data []byte) []byte
}

// Counters is a point-in-time snapshot of the store's instrumentation. All
// fields are monotone; the scheduler's metrics registry exposes them as
// Prometheus counters via scrape-time callbacks, so the store itself stays
// free of any metrics dependency.
type Counters struct {
	// Hits / Misses classify Lookup outcomes (a hit may be served from the
	// in-memory cache or from disk).
	Hits, Misses int64
	// CorruptionsDetected counts entries demoted to misses because their
	// payload failed to decode or checksum-verify (torn write, bit rot);
	// CorruptionsRepaired counts the subset later overwritten in place by a
	// successful Merge.
	CorruptionsDetected, CorruptionsRepaired int64
	// ReadErrors / WriteErrors count transient I/O failures surfaced to the
	// caller (the scheduler retries these with backoff).
	ReadErrors, WriteErrors int64
	// BytesRead / BytesWritten total the entry payloads moved through disk.
	BytesRead, BytesWritten int64
	// Merges counts successful Merge commits.
	Merges int64
}

// counters is the internal atomic form of Counters.
type counters struct {
	hits, misses                  atomic.Int64
	corruptDetected, corruptFixed atomic.Int64
	readErrs, writeErrs           atomic.Int64
	bytesRead, bytesWritten       atomic.Int64
	merges                        atomic.Int64
}

// Store is a content-addressed tally store with an in-memory cache and
// optional disk persistence. All methods are safe for concurrent use.
type Store struct {
	dir string // "" = memory-only

	ctr counters

	mu      sync.Mutex
	entries map[string]*experiment.Tally
	// missing caches keys known to be absent on disk so repeated cold Gets
	// don't stat the filesystem.
	missing map[string]bool
	// corrupt marks keys whose persisted entry was detected damaged; the next
	// successful Merge over such a key counts as a repair.
	corrupt map[string]bool
	faults  FaultInjector
}

// Open returns a store rooted at dir, creating it if needed. An empty dir
// yields a memory-only store (useful for tests and benchmarks).
func Open(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{
		dir:     dir,
		entries: make(map[string]*experiment.Tally),
		missing: make(map[string]bool),
		corrupt: make(map[string]bool),
	}, nil
}

// Counters snapshots the store's instrumentation counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:                s.ctr.hits.Load(),
		Misses:              s.ctr.misses.Load(),
		CorruptionsDetected: s.ctr.corruptDetected.Load(),
		CorruptionsRepaired: s.ctr.corruptFixed.Load(),
		ReadErrors:          s.ctr.readErrs.Load(),
		WriteErrors:         s.ctr.writeErrs.Load(),
		BytesRead:           s.ctr.bytesRead.Load(),
		BytesWritten:        s.ctr.bytesWritten.Load(),
		Merges:              s.ctr.merges.Load(),
	}
}

// Dir returns the backing directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// SetFaults installs (or, with nil, removes) a fault injector. Intended for
// chaos tests and the chaossweep example; call before serving traffic.
func (s *Store) SetFaults(f FaultInjector) {
	s.mu.Lock()
	s.faults = f
	s.mu.Unlock()
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// load fetches key into the cache from disk; callers hold s.mu. A nil, nil
// return is a definite miss; an error is a transient read failure that must
// not be treated as absence.
func (s *Store) load(key string) (*experiment.Tally, error) {
	if t, ok := s.entries[key]; ok {
		return t, nil
	}
	if s.dir == "" || s.missing[key] {
		return nil, nil
	}
	if s.faults != nil {
		if err := s.faults.StoreRead(key); err != nil {
			// Injected transient failure: surface it exactly like a real one
			// so the caller's retry path is what gets exercised.
			s.ctr.readErrs.Add(1)
			return nil, fmt.Errorf("store: read %s: %w", key, err)
		}
	}
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		s.missing[key] = true
		return nil, nil
	}
	if err != nil {
		// Transient failure (fd exhaustion, permissions): surface it rather
		// than record a miss — a later Merge must not replace a richer
		// persisted entry with a fresh delta-only tally.
		s.ctr.readErrs.Add(1)
		return nil, fmt.Errorf("store: read %s: %w", key, err)
	}
	s.ctr.bytesRead.Add(int64(len(data)))
	t, ok := decodeEntry(data)
	if !ok {
		// A corrupt entry — zero bytes, truncated JSON, checksum mismatch,
		// a malformed tally — is a *detected* miss: the service recomputes
		// and the next Merge repairs the file in place (counted as a repair
		// then).
		s.ctr.corruptDetected.Add(1)
		s.corrupt[key] = true
		s.missing[key] = true
		return nil, nil
	}
	s.entries[key] = t
	return t, nil
}

// decodeEntry parses and checksum-verifies a persisted entry, returning
// ok=false for any form of corruption, including a tally whose checksum
// matches but whose shape is wrong (experiment.Tally.Validate).
func decodeEntry(data []byte) (*experiment.Tally, bool) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || len(e.Tally) == 0 {
		return nil, false
	}
	sum := sha256.Sum256(e.Tally)
	if e.Sum != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	var t experiment.Tally
	if err := json.Unmarshal(e.Tally, &t); err != nil || t.Validate() != nil {
		return nil, false
	}
	return &t, true
}

// Get returns a copy of the tally stored under key, or nil when absent (or
// momentarily unreadable — a subsequent Merge still refuses to clobber it).
func (s *Store) Get(key string) *experiment.Tally {
	t, err := s.Lookup(key)
	if err != nil || t == nil {
		return nil
	}
	return t
}

// Lookup is Get with the transient/absent distinction surfaced: (nil, nil)
// is a definite miss, a non-nil error is a read failure worth retrying —
// treating it as a miss would make the caller recompute units the store
// already holds and then fail the extend-only merge.
func (s *Store) Lookup(key string) (*experiment.Tally, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.load(key)
	if err != nil {
		return nil, err
	}
	if t == nil {
		s.ctr.misses.Add(1)
		return nil, nil
	}
	s.ctr.hits.Add(1)
	return t.Clone(), nil
}

// Merge folds delta into the tally stored under key (creating the entry when
// absent), persists the result, and returns a copy of the merged tally. The
// delta must cover units disjoint from the stored entry — callers serialize
// work per key so this holds by construction.
func (s *Store) Merge(key, desc string, delta *experiment.Tally) (*experiment.Tally, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Merge and persist on a copy; the cache only commits once both
	// succeed, so a failed merge or full disk cannot leave memory claiming
	// work the store will have forgotten after a restart.
	var merged *experiment.Tally
	cur, err := s.load(key)
	if err != nil {
		return nil, err
	}
	if cur == nil {
		merged = delta.Clone()
	} else {
		merged = cur.Clone()
		if err := merged.Merge(delta); err != nil {
			return nil, fmt.Errorf("store: key %s: %w", key, err)
		}
	}
	if s.dir != "" {
		if err := s.persist(key, desc, merged); err != nil {
			return nil, err
		}
	}
	s.entries[key] = merged
	delete(s.missing, key)
	s.ctr.merges.Add(1)
	if s.corrupt[key] {
		// This commit overwrote an entry previously detected as damaged.
		delete(s.corrupt, key)
		s.ctr.corruptFixed.Add(1)
	}
	return merged.Clone(), nil
}

// persist writes the entry atomically (temp file + rename); callers hold s.mu.
func (s *Store) persist(key, desc string, t *experiment.Tally) error {
	tb, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", key, err)
	}
	sum := sha256.Sum256(tb)
	data, err := json.Marshal(Entry{Key: key, Desc: desc, Tally: tb, Sum: hex.EncodeToString(sum[:])})
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", key, err)
	}
	if s.faults != nil {
		if err := s.faults.StoreWrite(key); err != nil {
			s.ctr.writeErrs.Add(1)
			return fmt.Errorf("store: write %s: %w", key, err)
		}
		// A torn write "succeeds" now and is detected as a checksum miss at
		// the next cold read of this key.
		data = s.faults.CorruptEntry(key, data)
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		s.ctr.writeErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.ctr.writeErrs.Add(1)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.ctr.writeErrs.Add(1)
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		s.ctr.writeErrs.Add(1)
		return fmt.Errorf("store: rename %s: %w", key, err)
	}
	s.ctr.bytesWritten.Add(int64(len(data)))
	return nil
}

// Keys lists every key present in memory or on disk.
func (s *Store) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(s.entries))
	for k := range s.entries {
		seen[k] = true
	}
	if s.dir != "" {
		names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, n := range names {
			base := filepath.Base(n)
			seen[base[:len(base)-len(".json")]] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	return keys, nil
}
