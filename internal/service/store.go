// Package service is the partition-sharing daemon's core: a crash-safe
// multi-tenant profile store, admission-controlled plan solving with
// deadline propagation, and an epoch-based background re-optimizer that
// solves each epoch cold and degrades to the last good plan instead of
// failing. cmd/partitiond wraps it in an
// HTTP/JSON API; the chaos tests drive every failure path through
// internal/faultinject.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/obs"
	"partitionshare/internal/profileio"
)

// Typed sentinels for the store and service API; HTTP maps them to
// status codes, tests assert them with errors.Is.
var (
	// ErrTenantNotFound reports an operation on an unregistered tenant.
	ErrTenantNotFound = errors.New("service: tenant not found")
	// ErrStoreCorrupt reports a tenant store whose snapshot does not
	// parse; the journal's torn-tail tolerance never raises this — only
	// a damaged snapshot file does.
	ErrStoreCorrupt = errors.New("service: tenant store corrupt")
)

// Fault points in the store write path, beyond the atomicio-level ones.
const (
	// FaultStorePut fires at the head of a Put/Delete, before anything is
	// journaled — the cheapest way to make a registration fail.
	FaultStorePut = "service.store.put"
)

// storeVersion is the snapshot schema version.
const storeVersion = 1

const (
	snapshotFile = "tenants.json"
	journalFile  = "journal.log"
)

// A Store is the durable tenant registry: profiles keyed by tenant name,
// persisted as an atomicio.Journal — an atomic snapshot plus a
// CRC-framed append journal. The crash contract, proven by the chaos
// tests: an operation is durable iff it returned nil; a crash —
// including kill -9 — at any instruction leaves the store recoverable
// to exactly the acknowledged operations, and recovery is deterministic
// (two opens of the same directory yield byte-identical canonical
// state).
type Store struct {
	dir string

	mu      sync.Mutex
	tenants map[string]profileio.Profile
	seq     uint64 // sequence of the last applied operation: the replay watermark
	journal *atomicio.Journal
	logOps  int // journaled ops since the last snapshot, as of the last write
}

// journalRec is one journaled operation. Put carries the profile in its
// canonical hotlprof text form (JSON base64), so the journal is
// self-contained and versioned by the profile format itself.
type journalRec struct {
	Seq     uint64 `json:"seq"`
	Op      string `json:"op"` // "put" | "del"
	Name    string `json:"name"`
	Profile []byte `json:"profile,omitempty"`
}

// snapshotDoc is the atomic snapshot: every tenant in name order, plus
// the sequence number the snapshot is current through.
type snapshotDoc struct {
	Version int           `json:"version"`
	Seq     uint64        `json:"seq"`
	Tenants []snapshotRow `json:"tenants"`
}

type snapshotRow struct {
	Name    string `json:"name"`
	Profile []byte `json:"profile"`
}

// OpenStore opens (creating if needed) the tenant store in dir,
// replaying the journal over the snapshot. A torn journal tail — the
// signature of a crash mid-append — is discarded and immediately
// compacted away, so the next crash starts from a clean journal.
// compactEvery <= 0 uses the default.
func OpenStore(dir string, compactEvery int) (*Store, error) {
	s := &Store{dir: dir, tenants: make(map[string]profileio.Profile)}
	j, rec, err := atomicio.OpenJournal(atomicio.JournalConfig{
		Dir: dir, Snapshot: snapshotFile, Log: journalFile, CompactEvery: compactEvery,
		Load: s.load, Apply: s.apply, Save: s.save, Compacted: s.compacted,
	})
	if err != nil {
		return nil, err
	}
	s.journal, s.logOps = j, j.Pending()
	obs.Enabled().Counter(mStoreReplayed).Add(int64(rec.Replayed))
	if rec.Torn {
		obs.Enabled().Counter(mStoreTornRecovered).Add(1)
		obs.Logger().Warn("tenant journal had a torn tail; compacted", "dir", dir)
	}
	return s, nil
}

// corruptSnapshot wraps a snapshot decode failure in ErrStoreCorrupt.
func corruptSnapshot(dir, file string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrStoreCorrupt, filepath.Join(dir, file), err)
}

// load decodes the snapshot into the empty store.
func (s *Store) load(data []byte) error {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return corruptSnapshot(s.dir, snapshotFile, err)
	}
	if doc.Version != storeVersion {
		return corruptSnapshot(s.dir, snapshotFile, fmt.Errorf("snapshot version %d (want %d)", doc.Version, storeVersion))
	}
	for _, row := range doc.Tenants {
		p, err := profileio.Read(bytes.NewReader(row.Profile))
		if err != nil {
			return corruptSnapshot(s.dir, snapshotFile, fmt.Errorf("tenant %q: %v", row.Name, err))
		}
		s.tenants[row.Name] = p
	}
	s.seq = doc.Seq
	return nil
}

// apply replays one journal record, skipping those the snapshot already
// folded in (seq at or below the watermark).
func (s *Store) apply(rec []byte) (bool, error) {
	var jr journalRec
	if err := json.Unmarshal(rec, &jr); err != nil {
		return false, err
	}
	if jr.Seq <= s.seq {
		return false, nil
	}
	switch jr.Op {
	case "put":
		p, err := profileio.Read(bytes.NewReader(jr.Profile))
		if err != nil {
			return false, err
		}
		s.tenants[jr.Name] = p
	case "del":
		delete(s.tenants, jr.Name)
	default:
		return false, fmt.Errorf("unknown op %q", jr.Op)
	}
	s.seq = jr.Seq
	return true, nil
}

// compacted observes each compaction's outcome; the journal retries a
// failed one on the next write.
func (s *Store) compacted(err error) {
	if err != nil {
		obs.Logger().Warn("tenant store compaction failed", "dir", s.dir, "err", err)
		return
	}
	obs.Enabled().Counter(mStoreCompactions).Add(1)
}

// save encodes the snapshot; the journal calls it under s.mu.
func (s *Store) save() ([]byte, error) { return s.docBytesLocked(s.seq, "\n") }

// Put registers (or replaces) a tenant profile durably: the operation is
// journaled and fsynced before it is applied in memory, so an
// acknowledged Put survives any crash.
func (s *Store) Put(name string, p profileio.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("service: empty tenant name")
	}
	if err := faultinject.Hit(FaultStorePut); err != nil {
		return fmt.Errorf("service: store put: %w", err)
	}
	var buf bytes.Buffer
	if err := profileio.Write(&buf, p); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(journalRec{Op: "put", Name: name, Profile: buf.Bytes()}, func() { s.tenants[name] = p })
}

// Delete unregisters a tenant durably.
func (s *Store) Delete(name string) error {
	if err := faultinject.Hit(FaultStorePut); err != nil {
		return fmt.Errorf("service: store delete: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	return s.appendLocked(journalRec{Op: "del", Name: name}, func() { delete(s.tenants, name) })
}

// appendLocked journals jr as the next operation and, once it is
// durable, applies it in memory via apply.
func (s *Store) appendLocked(jr journalRec, apply func()) error {
	jr.Seq = s.seq + 1
	rec, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	err = s.journal.Append(rec, func() { apply(); s.seq = jr.Seq })
	s.logOps = s.journal.Pending()
	return err
}

// docBytesLocked renders every tenant in name order as the indented
// JSON snapshot document current through seq, followed by tail.
func (s *Store) docBytesLocked(seq uint64, tail string) ([]byte, error) {
	doc := snapshotDoc{Version: storeVersion, Seq: seq}
	for _, n := range s.namesLocked() {
		var buf bytes.Buffer
		if err := profileio.Write(&buf, s.tenants[n]); err != nil {
			return nil, err
		}
		doc.Tenants = append(doc.Tenants, snapshotRow{Name: n, Profile: buf.Bytes()})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, tail...), err
}

func (s *Store) namesLocked() []string {
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the named tenant's profile.
func (s *Store) Get(name string) (profileio.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.tenants[name]
	if !ok {
		return profileio.Profile{}, fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	return p, nil
}

// Names returns the registered tenant names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.namesLocked()
}

// Len returns the number of registered tenants.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Dir returns the store's directory — shared with the epoch audit log,
// so one -store flag names the daemon's whole durable footprint.
func (s *Store) Dir() string { return s.dir }

// Seq returns the sequence number of the last applied operation.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// CanonicalBytes renders the store's full state deterministically — the
// snapshot document, minus the sequence number, as indented JSON. Two
// stores holding the same tenants produce identical bytes regardless of
// operation history; the chaos tests compare these across crash/recover
// cycles.
func (s *Store) CanonicalBytes() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docBytesLocked(0, "")
}

// Close closes the journal. Further writes fail; reads keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}
