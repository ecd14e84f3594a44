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
	"io"
	"os"
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

// defaultCompactEvery is how many journaled ops accumulate before the
// store folds them into a fresh snapshot.
const defaultCompactEvery = 64

const (
	snapshotFile = "tenants.json"
	journalFile  = "journal.log"
)

// A Store is the durable tenant registry: profiles keyed by tenant name,
// persisted as an atomic snapshot plus a CRC-framed append journal. The
// crash contract, proven by the chaos tests: an operation is durable iff
// it returned nil; a crash — including kill -9 — at any instruction
// leaves the store recoverable to exactly the acknowledged operations,
// and recovery is deterministic (two opens of the same directory yield
// byte-identical canonical state).
type Store struct {
	dir          string
	compactEvery int

	mu      sync.Mutex
	tenants map[string]profileio.Profile
	seq     uint64 // sequence of the last applied operation
	log     *atomicio.Log
	logOps  int // journaled ops since the last snapshot
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
	if compactEvery <= 0 {
		compactEvery = defaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Store{
		dir:          dir,
		compactEvery: compactEvery,
		tenants:      make(map[string]profileio.Profile),
	}

	snapPath := filepath.Join(dir, snapshotFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrStoreCorrupt, snapPath, err)
		}
		if doc.Version != storeVersion {
			return nil, fmt.Errorf("%w: %s: snapshot version %d (want %d)", ErrStoreCorrupt, snapPath, doc.Version, storeVersion)
		}
		for _, row := range doc.Tenants {
			p, err := profileio.Read(bytes.NewReader(row.Profile))
			if err != nil {
				return nil, fmt.Errorf("%w: %s: tenant %q: %v", ErrStoreCorrupt, snapPath, row.Name, err)
			}
			s.tenants[row.Name] = p
		}
		s.seq = doc.Seq
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("service: %w", err)
	}

	jPath := filepath.Join(dir, journalFile)
	replayed := 0
	torn, err := atomicio.ReplayLog(jPath, func(rec []byte) error {
		var jr journalRec
		if err := json.Unmarshal(rec, &jr); err != nil {
			// A record that framed correctly but does not parse is damage
			// the CRC cannot see; treat it like a torn tail by stopping
			// the replay there via a sentinel the caller squashes.
			return errStopReplay
		}
		if jr.Seq <= s.seq {
			return nil // already folded into the snapshot
		}
		switch jr.Op {
		case "put":
			p, err := profileio.Read(bytes.NewReader(jr.Profile))
			if err != nil {
				return errStopReplay
			}
			s.tenants[jr.Name] = p
		case "del":
			delete(s.tenants, jr.Name)
		default:
			return errStopReplay
		}
		s.seq = jr.Seq
		replayed++
		return nil
	})
	if errors.Is(err, errStopReplay) {
		torn, err = true, nil
	}
	if err != nil {
		return nil, err
	}
	s.logOps = replayed
	obs.Enabled().Counter(mStoreReplayed).Add(int64(replayed))

	if torn {
		obs.Enabled().Counter(mStoreTornRecovered).Add(1)
		obs.Logger().Warn("tenant journal had a torn tail; compacting", "dir", dir)
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	} else {
		if s.log, err = atomicio.OpenLog(jPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var errStopReplay = errors.New("service: stop journal replay")

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
	if err := s.appendLocked(journalRec{Op: "put", Name: name, Profile: buf.Bytes()}); err != nil {
		return err
	}
	s.tenants[name] = p
	return s.maybeCompactLocked()
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
	if err := s.appendLocked(journalRec{Op: "del", Name: name}); err != nil {
		return err
	}
	delete(s.tenants, name)
	return s.maybeCompactLocked()
}

func (s *Store) appendLocked(jr journalRec) error {
	if s.log == nil {
		return fmt.Errorf("service: store closed")
	}
	jr.Seq = s.seq + 1
	rec, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	if err := s.log.Append(rec); err != nil {
		return err
	}
	s.seq = jr.Seq
	s.logOps++
	return nil
}

func (s *Store) maybeCompactLocked() error {
	if s.logOps < s.compactEvery {
		return nil
	}
	return s.compactLocked()
}

// compactLocked folds the current state into a fresh snapshot and resets
// the journal. Failure order matters: the snapshot rename is the commit
// point; a crash before it keeps the old snapshot+journal, a crash after
// it but before the journal reset leaves stale journal records that
// replay skips by sequence number.
func (s *Store) compactLocked() error {
	if err := atomicio.WriteFile(filepath.Join(s.dir, snapshotFile), func(w io.Writer) error {
		doc, err := s.snapshotDocLocked()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}); err != nil {
		return err
	}
	if s.log != nil {
		if err := s.log.Close(); err != nil {
			return err
		}
		s.log = nil
	}
	jPath := filepath.Join(s.dir, journalFile)
	if err := os.Remove(jPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("service: %w", err)
	}
	log, err := atomicio.OpenLog(jPath)
	if err != nil {
		return err
	}
	s.log = log
	s.logOps = 0
	obs.Enabled().Counter(mStoreCompactions).Add(1)
	return nil
}

func (s *Store) snapshotDocLocked() (snapshotDoc, error) {
	doc := snapshotDoc{Version: storeVersion, Seq: s.seq}
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var buf bytes.Buffer
		if err := profileio.Write(&buf, s.tenants[n]); err != nil {
			return doc, err
		}
		doc.Tenants = append(doc.Tenants, snapshotRow{Name: n, Profile: buf.Bytes()})
	}
	return doc, nil
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
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
	doc, err := s.snapshotDocLocked()
	if err != nil {
		return nil, err
	}
	doc.Seq = 0
	return json.MarshalIndent(doc, "", "  ")
}

// Compact forces a snapshot+journal-reset cycle.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Close closes the journal. Further writes fail; reads keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
