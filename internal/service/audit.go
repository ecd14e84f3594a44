package service

import (
	"encoding/json"
	"fmt"
	"sync"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/obs"
)

// The epoch audit log: the durable half of the plan-lifecycle
// observability layer. Every epoch transition the re-optimizer publishes
// is appended here — provenance, structured diff, and the new plan's
// group and allocation — on an atomicio.Journal, with the tenant store's
// crash contract. The log also carries the epoch counter across
// restarts: New seeds the service's epoch from LastEpoch, so epochs stay
// monotonic over the daemon's whole life, not one process's.

// FaultAuditAppend fires at the head of every audit append, before
// anything is journaled — the cheapest way to make an epoch's audit
// record fail (the epoch itself must still publish; audit failures are
// tolerated, counted, and logged, never propagated into the reopt loop).
const FaultAuditAppend = "service.audit.append"

// auditVersion is the audit snapshot schema version.
const auditVersion = 1

// defaultAuditRetain bounds how many epoch records the log keeps; older
// epochs fall off the front at append time (and therefore out of the
// next snapshot), bounding both memory and disk.
const defaultAuditRetain = 256

const (
	auditSnapshotFile = "epochs.json"
	auditJournalFile  = "epochs.log"
)

// An EpochRecord is one audited epoch transition: why and how the plan
// was computed (Provenance), what changed (Diff), and the resulting
// group and allocation. A record with an empty Tenants slice marks the
// group emptying (the last tenant unregistered; no plan is published).
type EpochRecord struct {
	Provenance PlanProvenance `json:"provenance"`
	Diff       PlanDiff       `json:"diff"`
	Tenants    []string       `json:"tenants,omitempty"`
	Alloc      []int          `json:"alloc,omitempty"`
	Units      int            `json:"units,omitempty"`
}

// auditDoc is the audit log's atomic snapshot: the retained records in
// epoch order, plus the highest epoch ever appended (which can exceed
// the last retained record's epoch only if retention trimmed everything,
// i.e. never in practice — it is the replay skip watermark).
type auditDoc struct {
	Version   int           `json:"version"`
	LastEpoch int64         `json:"last_epoch"`
	Records   []EpochRecord `json:"records"`
}

// An AuditLog is the durable, bounded record of epoch transitions.
// Construct with OpenAuditLog; safe for concurrent use.
type AuditLog struct {
	dir    string
	retain int

	mu        sync.Mutex
	records   []EpochRecord // epoch ascending, at most retain entries
	lastEpoch int64         // the replay watermark
	journal   *atomicio.Journal
}

// OpenAuditLog opens (creating if needed) the epoch audit log in dir,
// replaying the journal over the snapshot; a torn journal tail is
// discarded and compacted away exactly as the tenant store does.
// retain <= 0 and compactEvery <= 0 use the defaults.
func OpenAuditLog(dir string, retain, compactEvery int) (*AuditLog, error) {
	if retain <= 0 {
		retain = defaultAuditRetain
	}
	a := &AuditLog{dir: dir, retain: retain}
	j, rec, err := atomicio.OpenJournal(atomicio.JournalConfig{
		Dir: dir, Snapshot: auditSnapshotFile, Log: auditJournalFile, CompactEvery: compactEvery,
		Load: a.load, Apply: a.apply, Save: a.save, Compacted: a.compacted,
	})
	if err != nil {
		return nil, err
	}
	a.journal = j
	obs.Enabled().Counter(mAuditReplayed).Add(int64(rec.Replayed))
	if rec.Torn {
		obs.Enabled().Counter(mAuditTornRecovered).Add(1)
		obs.Logger().Warn("epoch audit journal had a torn tail; compacted", "dir", dir)
	}
	return a, nil
}

// load decodes the snapshot into the empty log.
func (a *AuditLog) load(data []byte) error {
	var doc auditDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return corruptSnapshot(a.dir, auditSnapshotFile, err)
	}
	if doc.Version != auditVersion {
		return corruptSnapshot(a.dir, auditSnapshotFile, fmt.Errorf("snapshot version %d (want %d)", doc.Version, auditVersion))
	}
	a.records = doc.Records
	a.lastEpoch = doc.LastEpoch
	a.trimLocked()
	return nil
}

// apply replays one journaled record, skipping those the snapshot
// already folded in (epoch at or below the watermark).
func (a *AuditLog) apply(rec []byte) (bool, error) {
	var er EpochRecord
	if err := json.Unmarshal(rec, &er); err != nil {
		return false, err
	}
	if er.Provenance.Epoch <= a.lastEpoch {
		return false, nil
	}
	a.appendLocked(er)
	return true, nil
}

// compacted observes each compaction's outcome; the journal retries a
// failed one on the next append.
func (a *AuditLog) compacted(err error) {
	if err != nil {
		obs.Logger().Warn("epoch audit log compaction failed", "dir", a.dir, "err", err)
		return
	}
	obs.Enabled().Counter(mAuditCompactions).Add(1)
}

// save encodes the snapshot; the journal calls it under a.mu.
func (a *AuditLog) save() ([]byte, error) {
	data, err := a.canonicalLocked()
	return append(data, '\n'), err
}

func (a *AuditLog) canonicalLocked() ([]byte, error) {
	return json.MarshalIndent(auditDoc{Version: auditVersion, LastEpoch: a.lastEpoch, Records: a.records}, "", "  ")
}

// Append records one epoch transition durably: journaled and fsynced
// before it is applied in memory, so an acknowledged record survives any
// crash. Records must arrive in epoch order (the reopt loop is the only
// writer).
func (a *AuditLog) Append(rec EpochRecord) error {
	if err := faultinject.Hit(FaultAuditAppend); err != nil {
		return fmt.Errorf("service: audit append: %w", err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.journal.Append(data, func() { a.appendLocked(rec) }); err != nil {
		return err
	}
	obs.Enabled().Counter(mAuditAppended).Add(1)
	return nil
}

// appendLocked adds rec in memory, sliding the retention window.
func (a *AuditLog) appendLocked(rec EpochRecord) {
	a.records = append(a.records, rec)
	a.lastEpoch = rec.Provenance.Epoch
	a.trimLocked()
}

func (a *AuditLog) trimLocked() {
	if excess := len(a.records) - a.retain; excess > 0 {
		a.records = append([]EpochRecord(nil), a.records[excess:]...)
	}
}

// History returns the retained records with epoch > since, oldest first
// (a copy). since < 0 returns everything retained.
func (a *AuditLog) History(since int64) []EpochRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := 0
	for i < len(a.records) && a.records[i].Provenance.Epoch <= since {
		i++
	}
	return append([]EpochRecord(nil), a.records[i:]...)
}

// LastEpoch returns the highest epoch ever appended (0 before the first
// epoch). The service seeds its epoch counter from this at startup, so
// epochs stay monotonic across restarts.
func (a *AuditLog) LastEpoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastEpoch
}

// Len returns the number of retained records.
func (a *AuditLog) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.records)
}

// CanonicalBytes renders the retained records deterministically as
// indented JSON. Two logs holding the same records produce identical
// bytes regardless of snapshot/journal split; the chaos tests compare
// these across crash/recover cycles.
func (a *AuditLog) CanonicalBytes() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.canonicalLocked()
}

// Close closes the journal. Further appends fail; reads keep working.
func (a *AuditLog) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.journal.Close()
}
