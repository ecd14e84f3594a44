package atomicio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"partitionshare/internal/faultinject"
)

// Append-only log with torn-tail-tolerant replay — the log half of a
// Journal (journal.go). Rewriting a whole file per record through
// WriteFile would be O(n²) in records, so this is the one other durable
// write primitive the package blesses: length- and CRC-framed records,
// each fsynced before Append returns (a record is durable iff Append
// returned nil), with a failed append truncated back off the file so
// the log never holds garbage between valid records. A crash mid-append
// leaves a torn final frame that ReplayLog reports and discards.

// Fault points in the log path (see the WriteFile points above).
const (
	// FaultLogAppend wraps the frame write: a firing partial-write rule
	// tears the appended frame mid-record.
	FaultLogAppend = "atomicio.log.append"
	// FaultLogSync fires between the frame write and its fsync.
	FaultLogSync = "atomicio.log.sync"
	// FaultLogReset fires at the head of Reset, before the truncate.
	FaultLogReset = "atomicio.log.reset"
)

// ErrLogBroken reports an append log whose file could not be truncated
// back after a failed append; the log refuses further appends until a
// successful Reset.
var ErrLogBroken = errors.New("atomicio: append log broken")

// maxLogRecord bounds a single record's declared length (64 MiB): replay
// of a corrupt length prefix must fail fast, not allocate gigabytes.
const maxLogRecord = 1 << 26

// A Log is a durable append-only record log. Not safe for concurrent
// Append; the owner serializes writers (a Journal's owner holds its own
// lock). Construct with OpenLog.
type Log struct {
	f      *os.File
	broken bool
}

// OpenLog opens (creating if absent) the append log at path.
func OpenLog(path string) (*Log, error) {
	// The raw write-mode OpenFile is legal here and only here: this file
	// is the blessed append-log primitive, inside the one package the
	// atomicwrite analyzer exempts.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicio: %w", err)
	}
	return &Log{f: f}, nil
}

// Append frames rec (uvarint length, CRC-32/IEEE, payload) onto the log
// and fsyncs. On any failure the log truncates itself back to the
// pre-append offset, so a failed append leaves no partial frame for the
// next Append to bury; if even the truncate fails, the log is marked
// broken and every later Append returns ErrLogBroken.
func (l *Log) Append(rec []byte) error {
	if l.broken {
		return ErrLogBroken
	}
	start, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(rec))
	frame := append(append([]byte{}, hdr[:n+4]...), rec...)

	w := faultinject.Writer(FaultLogAppend, l.f)
	if _, err := w.Write(frame); err != nil {
		return l.rollback(start, err)
	}
	if err := faultinject.Hit(FaultLogSync); err != nil {
		return l.rollback(start, err)
	}
	if err := l.f.Sync(); err != nil {
		return l.rollback(start, err)
	}
	return nil
}

// rollback truncates a failed append's partial frame back off the file.
func (l *Log) rollback(start int64, cause error) error {
	if err := l.f.Truncate(start); err != nil {
		l.broken = true
		return fmt.Errorf("%w: truncate after failed append: %v (append: %v)", ErrLogBroken, err, cause)
	}
	return fmt.Errorf("atomicio: log append: %w", cause)
}

// Reset truncates the log to empty and fsyncs, clearing a broken mark.
// A failed Reset leaves the log open and appendable as before.
func (l *Log) Reset() error {
	err := faultinject.Hit(FaultLogReset)
	if err == nil {
		err = l.f.Truncate(0)
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("atomicio: log reset: %w", err)
	}
	l.broken = false
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// ReplayLog reads every intact record at path in append order, calling
// fn for each. The first record that does not check out — a truncated
// frame, an implausible length, a CRC mismatch anywhere in the file, or
// a record fn rejects with an error (framed intact but unreadable) —
// ends the replay with torn=true; everything before it has already been
// delivered. A missing file replays zero records.
func ReplayLog(path string, fn func(rec []byte) error) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("atomicio: %w", err)
	}
	for off := 0; off < len(data); {
		length, n := binary.Uvarint(data[off:])
		recStart := off + n + 4
		if n <= 0 || length > maxLogRecord || recStart+int(length) > len(data) {
			return true, nil
		}
		rec := data[recStart : recStart+int(length)]
		if crc32.ChecksumIEEE(rec) != binary.LittleEndian.Uint32(data[off+n:]) || fn(rec) != nil {
			return true, nil
		}
		off = recStart + len(rec)
	}
	return false, nil
}
