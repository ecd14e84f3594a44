package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
)

// testEpochRecord builds a small deterministic epoch record.
func testEpochRecord(epoch int64) EpochRecord {
	return EpochRecord{
		Provenance: PlanProvenance{
			Epoch:       epoch,
			Cause:       CauseChurn,
			InputDigest: fmt.Sprintf("%032x", epoch),
			SolverPath:  "exact",
			ComputeNS:   1000 * epoch,
			UnixNS:      epoch, // fixed, so canonical bytes are comparable
		},
		Diff: PlanDiff{
			FromEpoch:  epoch - 1,
			ToEpoch:    epoch,
			Deltas:     []TenantDelta{{Tenant: "a", FromUnits: 10, ToUnits: 12, DeltaUnits: 2}},
			UnitsMoved: 2,
		},
		Tenants: []string{"a"},
		Alloc:   []int{12},
		Units:   12,
	}
}

func auditCanonical(t *testing.T, a *AuditLog) []byte {
	t.Helper()
	b, err := a.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAuditLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 5; e++ {
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if a.LastEpoch() != 5 || a.Len() != 5 {
		t.Fatalf("LastEpoch=%d Len=%d, want 5/5", a.LastEpoch(), a.Len())
	}
	want := auditCanonical(t, a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := auditCanonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("reopened audit log diverges:\n%s\nvs\n%s", got, want)
	}
	// History filters by epoch, oldest first.
	h := re.History(3)
	if len(h) != 2 || h[0].Provenance.Epoch != 4 || h[1].Provenance.Epoch != 5 {
		t.Fatalf("History(3) = %+v", h)
	}
	if n := len(re.History(-1)); n != 5 {
		t.Fatalf("History(-1) returned %d records, want 5", n)
	}
	if n := len(re.History(5)); n != 0 {
		t.Fatalf("History(5) returned %d records, want 0", n)
	}
}

// TestAuditLogRetention drives more epochs than the retain bound and
// checks the window slides: old records fall off, LastEpoch does not.
func TestAuditLogRetention(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 4, 3) // small retain and compactEvery: both paths exercised
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 10; e++ {
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 4 || a.LastEpoch() != 10 {
		t.Fatalf("Len=%d LastEpoch=%d, want 4/10", a.Len(), a.LastEpoch())
	}
	h := a.History(-1)
	if h[0].Provenance.Epoch != 7 {
		t.Fatalf("oldest retained epoch = %d, want 7", h[0].Provenance.Epoch)
	}
	want := auditCanonical(t, a)
	a.Close()
	re, err := OpenAuditLog(dir, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := auditCanonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("retention window not durable:\n%s\nvs\n%s", got, want)
	}
}

// TestAuditLogInjectedAppendFailure proves a failed append is not
// applied: memory and disk both stay at the last acknowledged record,
// and the log keeps working afterwards.
func TestAuditLogInjectedAppendFailure(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testEpochRecord(1)); err != nil {
		t.Fatal(err)
	}
	want := auditCanonical(t, a)

	plan := faultinject.NewPlan()
	plan.Set(atomicio.FaultLogAppend, faultinject.Rule{Count: 1, TruncateAt: 5})
	faultinject.Enable(plan)
	err = a.Append(testEpochRecord(2))
	faultinject.Enable(nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append under fault = %v, want injected error", err)
	}
	if got := auditCanonical(t, a); !bytes.Equal(got, want) {
		t.Fatalf("failed append mutated in-memory state")
	}
	a.Close()
	re, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := auditCanonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("failed append leaked to disk")
	}
	if err := re.Append(testEpochRecord(2)); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
}

// TestAuditLogTornJournalTail simulates a crash mid-append by truncating
// the journal: reopen keeps every fully-appended record and compacts,
// and a second reopen is byte-identical.
func TestAuditLogTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testEpochRecord(1)); err != nil {
		t.Fatal(err)
	}
	want := auditCanonical(t, a)
	if err := a.Append(testEpochRecord(2)); err != nil {
		t.Fatal(err)
	}
	a.Close()

	jPath := filepath.Join(dir, auditJournalFile)
	fi, err := os.Stat(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jPath, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	re, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := auditCanonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("torn-tail recovery state:\n%s\nwant\n%s", got, want)
	}
	if re.LastEpoch() != 1 {
		t.Fatalf("LastEpoch after torn recovery = %d, want 1", re.LastEpoch())
	}
	if err := re.Append(testEpochRecord(2)); err != nil {
		t.Fatalf("Append after torn recovery: %v", err)
	}
	after := auditCanonical(t, re)
	re.Close()
	re2, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := auditCanonical(t, re2); !bytes.Equal(got, after) {
		t.Fatalf("second reopen diverges after torn recovery")
	}
}

// TestAuditAppendFailureDoesNotFailEpoch proves the tolerance contract:
// a broken audit disk must not stop plans from publishing — the epoch
// lands, only the audit record is lost (and counted).
func TestAuditAppendFailureDoesNotFailEpoch(t *testing.T) {
	svc := newTestService(t, testConfig())
	plan := faultinject.NewPlan()
	plan.Set(FaultAuditAppend, faultinject.Rule{Count: 1})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	if err := svc.Register(nil, "a", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	p := waitForEpoch(t, svc, []string{"a"})
	if p.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1 despite audit failure", p.Epoch)
	}
	if svc.Audit().LastEpoch() != 0 {
		t.Fatalf("audit recorded the epoch despite the injected failure")
	}
	// The next epoch audits normally.
	if err := svc.Register(nil, "b", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	waitForEpoch(t, svc, []string{"a", "b"})
	if svc.Audit().LastEpoch() != 2 {
		t.Fatalf("audit LastEpoch = %d after recovery, want 2", svc.Audit().LastEpoch())
	}
}

// TestAuditKill9ByteIdentical is the audit log's crash-safety
// differential, mirroring the tenant store's: a child appends epoch
// records, acking each durable append on stdout; the parent SIGKILLs it
// mid-stream, reopens the log twice, and requires (a) every acked epoch
// survived and (b) the two recoveries are byte-identical.
func TestAuditKill9ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestAuditKill9Helper", "-test.v")
	cmd.Env = append(os.Environ(), "SERVICE_AUDIT_KILL9_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	acked := 0
	buf := make([]byte, 1)
	var line strings.Builder
	for acked < 5 {
		if _, err := out.Read(buf); err != nil {
			t.Fatalf("child exited early after %d acks: %v", acked, err)
		}
		if buf[0] != '\n' {
			line.WriteByte(buf[0])
			continue
		}
		if strings.HasPrefix(line.String(), "ack ") {
			acked++
		}
		line.Reset()
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	a1, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatalf("recovery open 1: %v", err)
	}
	if a1.LastEpoch() < int64(acked) {
		t.Fatalf("acked epoch %d lost after kill -9: LastEpoch=%d", acked, a1.LastEpoch())
	}
	seen := map[int64]bool{}
	for _, rec := range a1.History(-1) {
		seen[rec.Provenance.Epoch] = true
	}
	for e := int64(1); e <= int64(acked); e++ {
		if !seen[e] {
			t.Fatalf("acked epoch %d missing from recovered history", e)
		}
	}
	c1 := auditCanonical(t, a1)
	a1.Close()

	a2, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatalf("recovery open 2: %v", err)
	}
	c2 := auditCanonical(t, a2)
	a2.Close()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("recovery is not deterministic:\n%s\nvs\n%s", c1, c2)
	}
}

// TestAuditKill9Helper is the child half of the kill -9 test; it only
// runs when re-exec'd with the env var set.
func TestAuditKill9Helper(t *testing.T) {
	dir := os.Getenv("SERVICE_AUDIT_KILL9_DIR")
	if dir == "" {
		t.Skip("helper process only")
	}
	a, err := OpenAuditLog(dir, 0, 3) // small compactEvery: the kill races compaction too
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 10000; e++ {
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("ack %d\n", e)
		os.Stdout.Sync()
		time.Sleep(time.Millisecond)
	}
}
