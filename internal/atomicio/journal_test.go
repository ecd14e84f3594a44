package atomicio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"partitionshare/internal/faultinject"
)

// counterOwner is a minimal journal owner: an append-only list of ints
// whose records are "seq:value" and whose snapshot is "seq:v1,v2,...".
// The watermark is seq, exactly as the tenant store's.
type counterOwner struct {
	seq         int
	vals        []int
	compactions int
	compactErrs []error
}

func (o *counterOwner) config(dir string, every int) JournalConfig {
	return JournalConfig{
		Dir: dir, Snapshot: "snap", Log: "log", CompactEvery: every,
		Load: func(data []byte) error {
			head, body, _ := strings.Cut(string(data), ":")
			var err error
			if o.seq, err = strconv.Atoi(head); err != nil {
				return err
			}
			for _, f := range strings.FieldsFunc(body, func(r rune) bool { return r == ',' }) {
				v, err := strconv.Atoi(f)
				if err != nil {
					return err
				}
				o.vals = append(o.vals, v)
			}
			return nil
		},
		Apply: func(rec []byte) (bool, error) {
			var seq, v int
			if _, err := fmt.Sscanf(string(rec), "%d:%d", &seq, &v); err != nil {
				return false, err
			}
			if seq <= o.seq {
				return false, nil
			}
			o.seq, o.vals = seq, append(o.vals, v)
			return true, nil
		},
		Save: func() ([]byte, error) {
			parts := make([]string, len(o.vals))
			for i, v := range o.vals {
				parts[i] = strconv.Itoa(v)
			}
			return []byte(fmt.Sprintf("%d:%s", o.seq, strings.Join(parts, ","))), nil
		},
		Compacted: func(err error) {
			if err != nil {
				o.compactErrs = append(o.compactErrs, err)
				return
			}
			o.compactions++
		},
	}
}

func (o *counterOwner) add(t *testing.T, j *Journal, v int) error {
	t.Helper()
	seq := o.seq + 1
	return j.Append([]byte(fmt.Sprintf("%d:%d", seq, v)), func() {
		o.seq, o.vals = seq, append(o.vals, v)
	})
}

func openCounter(t *testing.T, dir string, every int) (*counterOwner, *Journal, Recovery) {
	t.Helper()
	o := &counterOwner{}
	j, rec, err := OpenJournal(o.config(dir, every))
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return o, j, rec
}

func (o *counterOwner) String() string { return fmt.Sprint(o.seq, o.vals) }

// TestJournalRoundTrip covers the plain cycle: appends, cadence
// compaction, reopen replaying only the records past the snapshot.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o, j, rec := openCounter(t, dir, 3)
	if rec != (Recovery{}) {
		t.Fatalf("fresh journal recovery = %+v", rec)
	}
	for v := 1; v <= 5; v++ {
		if err := o.add(t, j, v); err != nil {
			t.Fatal(err)
		}
	}
	if o.compactions != 1 || j.Pending() != 2 {
		t.Fatalf("compactions=%d pending=%d, want 1/2", o.compactions, j.Pending())
	}
	want := o.String()
	j.Close()
	if err := o.add(t, j, 6); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("Append after Close = %v, want ErrJournalClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	o2, j2, rec := openCounter(t, dir, 3)
	defer j2.Close()
	if got := o2.String(); got != want {
		t.Fatalf("reopened state %s, want %s", got, want)
	}
	if rec != (Recovery{Replayed: 2}) || j2.Pending() != 2 {
		t.Fatalf("recovery %+v pending %d, want 2 replayed, 2 pending", rec, j2.Pending())
	}
}

// TestJournalStaleRecordsSkipped reproduces a crash between the
// snapshot rename and the log reset: the log still holds records the
// snapshot covers, and replay must skip them by watermark.
func TestJournalStaleRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	o, j, _ := openCounter(t, dir, 100)
	for v := 1; v <= 3; v++ {
		if err := o.add(t, j, v); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if err := WriteFileBytes(filepath.Join(dir, "snap"), []byte("2:1,2")); err != nil {
		t.Fatal(err)
	}
	o2, j2, rec := openCounter(t, dir, 100)
	defer j2.Close()
	if got := o2.String(); got != "3 [1 2 3]" || rec != (Recovery{Replayed: 1}) {
		t.Fatalf("state %s recovery %+v, want 3 [1 2 3] with 1 replayed", got, rec)
	}
}

// TestJournalTornAndUnreadableTail covers both ways a log can end in a
// record that does not replay — a short frame and a frame whose payload
// Apply rejects. Either way the records before it survive, the open
// reports Torn, and the log is compacted to empty so later appends are
// not buried behind it.
func TestJournalTornAndUnreadableTail(t *testing.T) {
	for name, tear := range map[string]func(t *testing.T, l *Log, path string){
		"torn": func(t *testing.T, l *Log, path string) {
			if err := l.Append([]byte("3:3")); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		},
		"unreadable": func(t *testing.T, l *Log, path string) {
			if err := l.Append([]byte("not a record")); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			o, j, _ := openCounter(t, dir, 100)
			for v := 1; v <= 2; v++ {
				if err := o.add(t, j, v); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
			path := filepath.Join(dir, "log")
			l, err := OpenLog(path)
			if err != nil {
				t.Fatal(err)
			}
			tear(t, l, path)
			l.Close()

			o2, j2, rec := openCounter(t, dir, 100)
			if rec != (Recovery{Replayed: 2, Torn: true}) || o2.compactions != 1 || j2.Pending() != 0 {
				t.Fatalf("recovery %+v compactions %d pending %d", rec, o2.compactions, j2.Pending())
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
				t.Fatalf("log not reset after torn recovery: %v %v", fi, err)
			}
			if err := o2.add(t, j2, 3); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			o3, j3, rec := openCounter(t, dir, 100)
			defer j3.Close()
			if got := o3.String(); got != "3 [1 2 3]" || rec.Torn {
				t.Fatalf("state after recovery and append: %s (recovery %+v)", got, rec)
			}
		})
	}
}

// TestJournalCompactionFailure arms a fault in each compaction step —
// the snapshot write and the log reset. The triggering append is
// durable, so it must return nil and be applied; the failure is
// reported to Compacted, the next append retries the compaction, and a
// reopen at any point recovers every acknowledged record.
func TestJournalCompactionFailure(t *testing.T) {
	for _, point := range []string{FaultSync, FaultLogReset} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			o, j, _ := openCounter(t, dir, 2)
			if err := o.add(t, j, 1); err != nil {
				t.Fatal(err)
			}
			plan := faultinject.NewPlan()
			plan.Set(point, faultinject.Rule{Count: 1})
			faultinject.Enable(plan)
			err := o.add(t, j, 2)
			faultinject.Enable(nil)
			if err != nil {
				t.Fatalf("durable append with failed compaction = %v, want nil", err)
			}
			if len(o.compactErrs) != 1 || !errors.Is(o.compactErrs[0], faultinject.ErrInjected) || o.compactions != 0 {
				t.Fatalf("compaction outcomes: errs=%v ok=%d", o.compactErrs, o.compactions)
			}
			if o.String() != "2 [1 2]" || j.Pending() != 2 {
				t.Fatalf("state %s pending %d after failed compaction", o, j.Pending())
			}
			// Recoverable as is (opened from a copy: the original keeps going).
			if o2, j2, _ := openCounter(t, copyDir(t, dir), 2); o2.String() != "2 [1 2]" {
				t.Fatalf("reopen after failed compaction: %s", o2)
			} else {
				j2.Close()
			}
			// The next append retries and succeeds.
			if err := o.add(t, j, 3); err != nil {
				t.Fatal(err)
			}
			if o.compactions != 1 || j.Pending() != 0 {
				t.Fatalf("retry: compactions=%d pending=%d", o.compactions, j.Pending())
			}
			j.Close()
			o, j, _ = openCounter(t, dir, 2)
			defer j.Close()
			if o.String() != "3 [1 2 3]" {
				t.Fatalf("reopen after retried compaction: %s", o)
			}
		})
	}
}

// TestJournalAppendFailureNotApplied: a record that is not durable is
// neither applied nor counted toward the cadence.
func TestJournalAppendFailureNotApplied(t *testing.T) {
	dir := t.TempDir()
	o, j, _ := openCounter(t, dir, 2)
	defer j.Close()
	plan := faultinject.NewPlan()
	plan.Set(FaultLogSync, faultinject.Rule{Count: 1})
	faultinject.Enable(plan)
	err := o.add(t, j, 1)
	faultinject.Enable(nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append = %v, want injected error", err)
	}
	if o.String() != "0 []" || j.Pending() != 0 {
		t.Fatalf("failed append applied: %s pending %d", o, j.Pending())
	}
}

// TestJournalCorruptSnapshotFailsOpen: Load's error is returned as is.
func TestJournalCorruptSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileBytes(filepath.Join(dir, "snap"), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	o := &counterOwner{}
	if _, _, err := OpenJournal(o.config(dir, 0)); err == nil {
		t.Fatal("OpenJournal accepted a corrupt snapshot")
	}
}

func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeRaw(t, filepath.Join(dst, e.Name()), data)
	}
	return dst
}

// TestLogReset: a reset log is empty, appendable, and no longer broken.
func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("old")); err != nil {
		t.Fatal(err)
	}
	l.broken = true
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("new")); err != nil {
		t.Fatalf("Append after Reset: %v", err)
	}
	recs, torn := replayAll(t, path)
	if torn || len(recs) != 1 || string(recs[0]) != "new" {
		t.Fatalf("after reset: recs=%q torn=%v", recs, torn)
	}
}
