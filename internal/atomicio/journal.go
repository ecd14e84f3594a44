package atomicio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// A Journal is a snapshot file plus an append Log beside it: the one
// durable-state mechanism behind the daemon's tenant store and epoch
// audit log. The owner keeps its state, its lock, its encodings and a
// replay watermark; the Journal owns the files, replay, torn-tail
// recovery and the compaction cadence. It is not locked: the owner
// calls it, and it calls the owner back, under the owner's lock.
//
// Crash contract: an Append is durable iff it returned nil. Compaction
// writes the snapshot atomically — the rename is the commit point — then
// resets the log; records a crash leaves behind in the log are covered
// by the new snapshot, and Apply skips them by watermark.
type Journal struct {
	cfg     JournalConfig
	log     *Log
	pending int // records appended since the last snapshot
}

// JournalConfig names a journal's files and binds it to its owner.
type JournalConfig struct {
	Dir, Snapshot, Log string // Dir is created if absent
	CompactEvery       int    // appends per compaction; <= 0 means 64

	// Load decodes the snapshot, when one exists; its error fails the open.
	Load func(snapshot []byte) error
	// Apply replays one log record, reporting false for a record at or
	// below the owner's watermark. An error marks the record unreadable
	// (framed intact, not parseable), which ends the replay like a torn
	// tail.
	Apply func(rec []byte) (applied bool, err error)
	// Save encodes the owner's current state as the snapshot.
	Save func() ([]byte, error)
	// Compacted observes each compaction's outcome (nil on success).
	Compacted func(err error)
}

// defaultCompactEvery is the compaction cadence when CompactEvery is unset.
const defaultCompactEvery = 64

// Recovery reports what OpenJournal found in the log: how many records
// Apply applied, and whether the log ended torn (now compacted away).
type Recovery struct {
	Replayed int
	Torn     bool
}

// ErrJournalClosed reports an Append after Close.
var ErrJournalClosed = errors.New("atomicio: journal closed")

// OpenJournal opens (creating if needed) the journal described by cfg:
// it loads the snapshot and replays the log through Apply. A torn log is
// compacted before OpenJournal returns, and if that fails so does the
// open — a record appended behind a torn frame would never replay.
func OpenJournal(cfg JournalConfig) (*Journal, Recovery, error) {
	var rec Recovery
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = defaultCompactEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("atomicio: %w", err)
	}
	if data, err := os.ReadFile(filepath.Join(cfg.Dir, cfg.Snapshot)); err == nil {
		if err := cfg.Load(data); err != nil {
			return nil, rec, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, rec, fmt.Errorf("atomicio: %w", err)
	}
	logPath := filepath.Join(cfg.Dir, cfg.Log)
	torn, err := ReplayLog(logPath, func(r []byte) error {
		applied, err := cfg.Apply(r)
		if applied {
			rec.Replayed++
		}
		return err
	})
	if err != nil {
		return nil, rec, err
	}
	j := &Journal{cfg: cfg, pending: rec.Replayed}
	if j.log, err = OpenLog(logPath); err != nil {
		return nil, rec, err
	}
	if rec.Torn = torn; torn {
		if err := j.compact(); err != nil {
			j.log.Close()
			return nil, rec, err
		}
	}
	return j, rec, nil
}

// Append writes rec to the log and fsyncs it, then runs apply (the
// owner's in-memory update) and, every CompactEvery records, compacts.
// It returns nil iff rec is durable: a failed compaction only reaches
// Compacted and is retried on the next Append, and a failed log reset
// leaves the old log appendable.
func (j *Journal) Append(rec []byte, apply func()) error {
	if j.log == nil {
		return ErrJournalClosed
	}
	if err := j.log.Append(rec); err != nil {
		return err
	}
	apply()
	if j.pending++; j.pending >= j.cfg.CompactEvery {
		j.compact()
	}
	return nil
}

// compact commits a fresh snapshot, then resets the log.
func (j *Journal) compact() error {
	data, err := j.cfg.Save()
	if err == nil {
		err = WriteFileBytes(filepath.Join(j.cfg.Dir, j.cfg.Snapshot), data)
	}
	if err == nil {
		err = j.log.Reset()
	}
	if err == nil {
		j.pending = 0
	}
	j.cfg.Compacted(err)
	return err
}

// Pending returns how many records were appended since the last snapshot.
func (j *Journal) Pending() int { return j.pending }

// Close closes the log; later Appends return ErrJournalClosed.
func (j *Journal) Close() error {
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}
