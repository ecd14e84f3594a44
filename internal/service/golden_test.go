package service

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// The on-disk compatibility golden: testdata/golden holds a tenant-store
// directory and an audit-log directory in their crash-recovery shape — a
// snapshot, stale pre-snapshot journal records (a crash between the
// snapshot rename and the journal reset, then a restart and more
// appends), and a torn final frame. Recovery of a copy must reproduce
// the committed canonical state and the committed post-recovery file
// bytes exactly, so any change to file names, JSON shapes, framing or
// the recovery protocol shows up as a byte diff here.
//
// Regenerate (only when a format change is intended) with
//
//	go test -run TestGolden ./internal/service -golden.update

var goldenUpdate = flag.Bool("golden.update", false, "rewrite testdata/golden from the current code")

const goldenDir = "testdata/golden"

func TestGoldenStoreRecovery(t *testing.T) {
	if *goldenUpdate {
		writeGoldenStore(t, filepath.Join(goldenDir, "store"))
	}
	dir := copyGoldenInput(t, filepath.Join(goldenDir, "store"))
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer s.Close()
	checkGolden(t, filepath.Join(goldenDir, "store"), dir, canonical(t, s), snapshotFile, journalFile)
}

func TestGoldenAuditRecovery(t *testing.T) {
	if *goldenUpdate {
		writeGoldenAudit(t, filepath.Join(goldenDir, "audit"))
	}
	dir := copyGoldenInput(t, filepath.Join(goldenDir, "audit"))
	a, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatalf("OpenAuditLog: %v", err)
	}
	defer a.Close()
	checkGolden(t, filepath.Join(goldenDir, "audit"), dir, auditCanonical(t, a), auditSnapshotFile, auditJournalFile)
}

// copyGoldenInput copies a fixture's in/ directory into a fresh temp
// directory, so recovery never rewrites the committed files.
func copyGoldenInput(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join(fixture, "in"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, "in", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkGolden compares the recovered canonical bytes and every file left
// in dir against the fixture's want/ directory; with -golden.update it
// records them instead.
func checkGolden(t *testing.T, fixture, dir string, canon []byte, files ...string) {
	t.Helper()
	want := filepath.Join(fixture, "want")
	got := map[string][]byte{"canonical.json": canon}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(files) {
		t.Errorf("recovered dir holds %d files, want exactly %v", len(ents), files)
	}
	for _, name := range files {
		if got[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range got {
		path := filepath.Join(want, name)
		if *goldenUpdate {
			if err := os.MkdirAll(want, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		exp, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, exp) {
			t.Errorf("%s: recovered bytes differ from %s (%d vs %d bytes)", name, path, len(data), len(exp))
		}
	}
}

// writeGoldenStore builds the store fixture's in/ directory: puts a, b,
// c with compaction every 3 ops (the journal holding seq 1-2 is saved
// just before the compacting put), then reopens and journals put d,
// delete a, put e. The final journal is the saved stale records, then
// seq 4-6, cut 7 bytes into the last frame.
func writeGoldenStore(t *testing.T, fixture string) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	var stale []byte
	for i, name := range []string{"a", "b", "c"} {
		if i == 2 {
			stale = readFile(t, filepath.Join(dir, journalFile))
		}
		if err := s.Put(name, goldenProfile(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s, err = OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("d", goldenProfile(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("e", goldenProfile(5)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeGoldenInput(t, fixture, dir, snapshotFile, journalFile, stale)
}

// writeGoldenAudit builds the audit fixture's in/ directory the same
// way: epochs 1-3 with compaction every 3 (epochs 1-2 saved as the stale
// journal), then epochs 4-6 after a reopen, torn 7 bytes into epoch 6.
func writeGoldenAudit(t *testing.T, fixture string) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var stale []byte
	for e := int64(1); e <= 3; e++ {
		if e == 3 {
			stale = readFile(t, filepath.Join(dir, auditJournalFile))
		}
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	a, err = OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(4); e <= 6; e++ {
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	writeGoldenInput(t, fixture, dir, auditSnapshotFile, auditJournalFile, stale)
}

// writeGoldenInput stores dir's snapshot and, as the journal, the stale
// records followed by dir's journal minus its last 7 bytes.
func writeGoldenInput(t *testing.T, fixture, dir, snap, journal string, stale []byte) {
	t.Helper()
	in := filepath.Join(fixture, "in")
	if err := os.MkdirAll(in, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(in, snap), readFile(t, filepath.Join(dir, snap)), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := readFile(t, filepath.Join(dir, journal))
	torn := append(append([]byte{}, stale...), fresh[:len(fresh)-7]...)
	if err := os.WriteFile(filepath.Join(in, journal), torn, 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenProfile is a deliberately tiny tenant profile, so the committed
// fixtures stay a few kilobytes.
func goldenProfile(seed uint64) profileio.Profile {
	rp := reuse.Collect(trace.Generate(trace.NewZipf(16, 0.7, seed), 128))
	return profileio.Profile{Name: fmt.Sprintf("golden-%d", seed), Rate: 1.0, Reuse: rp}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
