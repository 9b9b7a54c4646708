package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// readExport reads an export verbatim. NetLog timestamps come from the
// browser's deterministic session clock, so no field is normalized away:
// the comparison below is byte-for-byte.
func readExport(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// stageTable extracts the per-stage timing table from a run's output.
func stageTable(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "Per-stage timing")
	if i < 0 {
		t.Fatalf("no per-stage timing table in output:\n%s", out)
	}
	rest := out[i:]
	if j := strings.Index(rest, "\nsession logs written"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// segmentFiles returns the journal's segment paths in name order.
func segmentFiles(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	sort.Strings(segs)
	return segs
}

// TestKillResumeSmoke is the crash-recovery smoke run wired into `make
// chaos`: crawl with a journal, SIGKILL the process mid-crawl, tear the
// journal's tail mid-record, resume with -resume, and require the resumed
// export to match a clean uninterrupted run byte-for-byte.
func TestKillResumeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	args := []string{"-sites", "300", "-workers", "8", "-detector-train", "150", "-seed", "42"}
	run := func(extra ...string) string {
		out, err := exec.Command(bin, append(append([]string{}, args...), extra...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("phishcrawl %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	// Reference: one uninterrupted, unjournaled run.
	clean := filepath.Join(dir, "clean.jsonl")
	cleanOut := run("-o", clean)

	// Interrupted run: SIGKILL as soon as the journal holds data, which is
	// mid-crawl (sessions stream into the journal as they complete). The
	// interrupted leg runs under -journal-sync group, so the kill lands on
	// the group-commit path: the crash may only lose the unacknowledged
	// batch, and the resume below must still reproduce the clean run
	// byte-for-byte. (The pipeline pools session graphs by default, so this
	// pin also covers pooling across a kill/resume boundary.)
	jdir := filepath.Join(dir, "journal")
	cmd := exec.Command(bin, append(append([]string{}, args...), "-journal", jdir, "-journal-sync", "group")...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		var total int64
		for _, seg := range segmentFiles(jdir) {
			if fi, err := os.Stat(seg); err == nil {
				total += fi.Size()
			}
		}
		if total > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("journal never grew; crawl did not start?")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to report the kill; the journal is what matters

	// Tear the tail: chop one byte off the last segment, simulating a crash
	// mid-append. Resume must truncate the torn record and re-crawl its URL.
	segs := segmentFiles(jdir)
	if len(segs) == 0 {
		t.Fatal("no journal segments after kill")
	}
	last := segs[len(segs)-1]
	if fi, err := os.Stat(last); err == nil && fi.Size() > 1 {
		if err := os.Truncate(last, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
	}

	// Resume and export the merged view.
	resumed := filepath.Join(dir, "resumed.jsonl")
	out := run("-journal", jdir, "-resume", "-o", resumed)
	if !strings.Contains(out, "Journal: resumed") {
		t.Fatalf("resume banner missing from output:\n%s", out)
	}

	// Resume skips every URL the journal already completed, so the killed
	// run's sessions and the resumed run's never overlap: no URL may hold
	// a superseded session record.
	j, err := journal.Open(jdir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	perURL := map[string]int{}
	err = j.Scan(func(r journal.Record) error {
		if r.Kind != journal.KindSession {
			return nil
		}
		var lg struct{ SeedURL string }
		if err := json.Unmarshal(r.Payload, &lg); err != nil {
			return err
		}
		perURL[lg.SeedURL]++
		return nil
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Count(readExport(t, clean), "\n"); len(perURL) != want {
		t.Errorf("journal holds sessions for %d URLs after resume, want %d", len(perURL), want)
	}
	for u, n := range perURL {
		if n > 1 {
			t.Errorf("journal holds %d session records for %s after resume, want 1", n, u)
		}
	}

	// Stage latency percentiles derive from session-logical traces, so the
	// per-stage table — p50/p90/p99 included — must be identical between the
	// clean run and the kill/resume run, not merely close.
	cleanStages := stageTable(t, cleanOut)
	resumedStages := stageTable(t, out)
	if !strings.Contains(cleanStages, "P50") || !strings.Contains(cleanStages, "P99") {
		t.Errorf("stage table missing percentile columns:\n%s", cleanStages)
	}
	if cleanStages != resumedStages {
		t.Errorf("per-stage timing diverges between clean and resumed runs:\nclean:\n%s\nresumed:\n%s",
			cleanStages, resumedStages)
	}

	cleanBytes := readExport(t, clean)
	resumedBytes := readExport(t, resumed)
	if cleanBytes != resumedBytes {
		cl := strings.Split(cleanBytes, "\n")
		rl := strings.Split(resumedBytes, "\n")
		n := 0
		for n < len(cl) && n < len(rl) && cl[n] == rl[n] {
			n++
		}
		t.Fatalf("resumed export diverges from clean run at line %d (clean %d lines, resumed %d)",
			n+1, len(cl), len(rl))
	}
}
