package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// testProfile builds a small deterministic tenant profile.
func testProfile(t testing.TB, seed uint64) profileio.Profile {
	t.Helper()
	g := trace.NewZipf(512, 0.7, seed)
	rp := reuse.Collect(trace.Generate(g, 4096))
	return profileio.Profile{Name: fmt.Sprintf("tenant-%d", seed), Rate: 1.0, Reuse: rp}
}

func canonical(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := s.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := s.Put(fmt.Sprintf("t%d", i), testProfile(t, i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := canonical(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("reopened store diverges:\n%s\nvs\n%s", got, want)
	}
	if names := re.Names(); strings.Join(names, ",") != "t1,t2,t3" {
		t.Fatalf("Names = %v", names)
	}
	p, err := re.Get("t2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tenant-2" {
		t.Fatalf("Get returned profile %q", p.Name)
	}
}

func TestStoreDeleteAndNotFound(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrTenantNotFound) {
		t.Fatalf("double delete = %v, want ErrTenantNotFound", err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrTenantNotFound) {
		t.Fatalf("Get deleted = %v, want ErrTenantNotFound", err)
	}
	want := canonical(t, s)
	s.Close()
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("delete not durable:\n%s\nvs\n%s", got, want)
	}
}

// TestStoreCompaction drives enough churn to trigger automatic
// compaction and checks the state survives it and a reopen.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 11; i++ {
		if err := s.Put(fmt.Sprintf("t%d", i%5), testProfile(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.logOps >= 4 {
		t.Fatalf("compaction never ran: logOps=%d", s.logOps)
	}
	want := canonical(t, s)
	s.Close()
	re, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("post-compaction reopen diverges")
	}
}

// TestStoreInjectedAppendFailure proves a failed journal append is not
// applied: the store's memory and disk state both stay at the last
// acknowledged operation.
func TestStoreInjectedAppendFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("survivor", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, s)

	plan := faultinject.NewPlan()
	plan.Set(atomicio.FaultLogAppend, faultinject.Rule{Count: 1, TruncateAt: 5})
	faultinject.Enable(plan)
	err = s.Put("doomed", testProfile(t, 2))
	faultinject.Enable(nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put under fault = %v, want injected error", err)
	}
	if got := canonical(t, s); !bytes.Equal(got, want) {
		t.Fatalf("failed Put mutated in-memory state")
	}
	// And the rolled-back journal replays cleanly after reopen.
	s.Close()
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("failed Put leaked to disk")
	}
	if err := re.Put("doomed", testProfile(t, 2)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

// TestStoreInjectedPutFault covers the store-level fault point.
func TestStoreInjectedPutFault(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan := faultinject.NewPlan()
	plan.Set(FaultStorePut, faultinject.Rule{Count: 1})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)
	if err := s.Put("x", testProfile(t, 1)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put = %v, want injected error", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed Put registered a tenant")
	}
}

// TestStoreTornJournalTail simulates a crash mid-append by truncating
// the journal file: reopen must keep every fully-appended record, flag
// the recovery, and leave a compacted clean store behind.
func TestStoreTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, s)
	if err := s.Put("torn", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jPath := filepath.Join(dir, journalFile)
	fi, err := os.Stat(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jPath, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("torn-tail recovery state:\n%s\nwant\n%s", got, want)
	}
	// Recovery compacted: the journal is fresh and the store writable.
	if err := re.Put("after", testProfile(t, 3)); err != nil {
		t.Fatalf("Put after torn recovery: %v", err)
	}
	after := canonical(t, re)
	re.Close()
	re2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := canonical(t, re2); !bytes.Equal(got, after) {
		t.Fatalf("second reopen diverges after torn recovery")
	}
}

// TestStoreKill9ByteIdentical is the crash-safety differential: a child
// process registers tenants, acking each durable Put on stdout; the
// parent SIGKILLs it mid-stream, reopens the store twice, and requires
// (a) every acked tenant survived and (b) the two recoveries are
// byte-identical.
func TestStoreKill9ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestStoreKill9Helper", "-test.v")
	cmd.Env = append(os.Environ(), "SERVICE_STORE_KILL9_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Read acks until we have a few, then kill -9 mid-write-loop.
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

	s1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("recovery open 1: %v", err)
	}
	for i := 1; i <= acked; i++ {
		if _, err := s1.Get("t" + strconv.Itoa(i)); err != nil {
			t.Fatalf("acked tenant t%d lost after kill -9: %v", i, err)
		}
	}
	c1 := canonical(t, s1)
	s1.Close()

	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("recovery open 2: %v", err)
	}
	c2 := canonical(t, s2)
	s2.Close()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("recovery is not deterministic:\n%s\nvs\n%s", c1, c2)
	}
}

// TestStoreKill9Helper is the child half of the kill -9 test; it only
// runs when re-exec'd with the env var set.
func TestStoreKill9Helper(t *testing.T) {
	dir := os.Getenv("SERVICE_STORE_KILL9_DIR")
	if dir == "" {
		t.Skip("helper process only")
	}
	s, err := OpenStore(dir, 3) // small compactEvery: the kill races compaction too
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10000; i++ {
		if err := s.Put("t"+strconv.Itoa(i), testProfile(t, uint64(i))); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("ack %d\n", i)
		os.Stdout.Sync()
		time.Sleep(time.Millisecond)
	}
}

// TestServiceCompactionFailureKeepsAgreement arms a snapshot-write
// fault on the Register and the Unregister whose journal append triggers
// compaction. Each operation is durable once journaled, so it must
// return nil and the service's planning set must follow the store; the
// failed compaction is retried on the next write, and a reopen recovers
// the same state.
func TestServiceCompactionFailureKeepsAgreement(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Register(nil, "a", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	faulty := func(op func() error) error {
		plan := faultinject.NewPlan()
		plan.Set(atomicio.FaultSync, faultinject.Rule{Count: 1})
		faultinject.Enable(plan)
		defer faultinject.Enable(nil)
		return op()
	}
	agree := func(want string) {
		t.Helper()
		names := strings.Join(svc.Tenants(), ",")
		svc.mu.Lock()
		order := strings.Join(svc.order, ",")
		svc.mu.Unlock()
		if names != want || order != want {
			t.Fatalf("store holds %q, service plans %q; want %q in both", names, order, want)
		}
	}
	if err := faulty(func() error { return svc.Register(nil, "b", testProfile(t, 2)) }); err != nil {
		t.Fatalf("Register with failed compaction = %v, want nil (the put is durable)", err)
	}
	agree("a,b")
	if err := faulty(func() error { return svc.Unregister(nil, "a") }); err != nil {
		t.Fatalf("Unregister with failed compaction = %v, want nil (the delete is durable)", err)
	}
	agree("b")
	if store.logOps != 3 {
		t.Fatalf("logOps = %d after two failed compactions, want 3", store.logOps)
	}
	want := canonical(t, store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("reopen after failed compactions diverges:\n%s\nvs\n%s", got, want)
	}
	// The next write retries the compaction, now successfully.
	if err := re.Put("c", testProfile(t, 3)); err != nil {
		t.Fatal(err)
	}
	if re.logOps != 0 {
		t.Fatalf("compaction not retried: logOps = %d", re.logOps)
	}
	want = canonical(t, re)
	re.Close()
	re2, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := canonical(t, re2); !bytes.Equal(got, want) {
		t.Fatalf("reopen after retried compaction diverges")
	}
}
