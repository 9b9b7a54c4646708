package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/fleet"
)

// pollFleetStatus fetches the coordinator's /status?format=json view.
func pollFleetStatus(addr string) (fleet.Status, error) {
	var st fleet.Status
	resp, err := http.Get("http://" + addr + fleet.PathStatus + "?format=json")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// heldLease returns the lease worker name holds in st, if any.
func heldLease(st fleet.Status, name string) (fleet.Lease, bool) {
	for _, w := range st.Workers {
		if w.Name != name || w.Lease == "" {
			continue
		}
		var l fleet.Lease
		if _, err := fmt.Sscanf(w.Lease, "[%d,%d)", &l.Start, &l.End); err != nil {
			return l, false
		}
		l.Attempt = w.Attempt
		return l, true
	}
	return fleet.Lease{}, false
}

// shardHasSessions reports whether a shard journal directory holds any
// appended record: its segments start empty, and a fleet run without
// triage or cloaking appends session records until the lease finishes.
func shardHasSessions(t *testing.T, dir string) bool {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// TestFleetSmoke is the distributed-determinism smoke run wired into
// `make fleet-smoke` (and `make chaos`): a coordinator and a first worker
// crawl the feed as a fleet, that worker is SIGKILLed mid-lease (its range
// must expire and be re-issued), a second worker and then a replacement
// join mid-run, and the coordinator's merged export and per-stage timing
// table must match a single-process run byte-for-byte — N processes × M
// workers ≡ 1 × 1.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a multi-process fleet")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phishcrawl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building phishcrawl: %v\n%s", err, out)
	}

	args := []string{"-sites", "300", "-workers", "8", "-detector-train", "150", "-seed", "42"}

	// Reference: one uninterrupted single-process run.
	clean := filepath.Join(dir, "clean.jsonl")
	cleanCmd := exec.Command(bin, append(append([]string{}, args...), "-o", clean)...)
	cleanOutB, err := cleanCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run: %v\n%s", err, cleanOutB)
	}
	cleanOut := string(cleanOutB)

	// Fleet run: coordinator on a kernel-assigned loopback port, output
	// teed to a file so the test can learn the resolved address.
	jdir := filepath.Join(dir, "journal")
	merged := filepath.Join(dir, "fleet.jsonl")
	coordLog, err := os.Create(filepath.Join(dir, "coordinator.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer coordLog.Close()
	coordArgs := append(append([]string{}, args...),
		"-coordinator", "-fleet-addr", "127.0.0.1:0",
		"-journal", jdir, "-lease-sites", "60", "-lease-ttl", "2s", "-o", merged)
	coord := exec.Command(bin, coordArgs...)
	coord.Stdout = coordLog
	coord.Stderr = coordLog
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if coord.ProcessState == nil {
			coord.Process.Kill()
			coord.Wait()
		}
	}()
	readCoordLog := func() string {
		b, _ := os.ReadFile(coordLog.Name())
		return string(b)
	}

	// Learn the coordinator's address from its startup banner.
	addrRe := regexp.MustCompile(`coordinating \d+ URLs on http://([0-9.]+:\d+)`)
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(readCoordLog()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address:\n%s", readCoordLog())
		}
		time.Sleep(10 * time.Millisecond)
	}

	startWorker := func(name string) *exec.Cmd {
		w := exec.Command(bin, append(append([]string{}, args...),
			"-worker", "-fleet-addr", addr, "-journal", jdir, "-worker-name", name)...)
		out, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { out.Close() })
		w.Stdout = out
		w.Stderr = out
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// w1 crawls alone until it is killed, so the fleet cannot finish
	// without it. It is SIGKILLed once it holds a lease whose shard journal
	// already has sessions on disk — a mid-lease kill with partial work, so
	// the range MUST be re-issued and resumed. The journal, not the
	// heartbeat's Done count, is the progress signal: a lease can finish
	// inside one heartbeat interval, before any heartbeat reports it.
	victim := startWorker("w1")
	deadline = time.Now().Add(120 * time.Second)
	for {
		st, err := pollFleetStatus(addr)
		if err == nil {
			if st.LeasesDone == st.Leases {
				t.Fatal("fleet finished before w1 could be killed mid-lease; raise -sites")
			}
			if w, ok := heldLease(st, "w1"); ok && shardHasSessions(t, fleet.ShardDir(jdir, w)) {
				t.Logf("killing w1 mid-lease %s (attempt %d)", w.Range(), w.Attempt)
				if err := victim.Process.Kill(); err != nil {
					t.Fatal(err)
				}
				victim.Wait()
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("w1 never journaled a session into a held lease; coordinator log:\n%s", readCoordLog())
		}
		time.Sleep(10 * time.Millisecond)
	}
	survivor := startWorker("w2")

	// A replacement joins mid-run, like an operator restarting the dead
	// process.
	replacement := startWorker("w3")

	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, readCoordLog())
	}
	coordOut := readCoordLog()
	if !strings.Contains(coordOut, "re-issuing") {
		t.Errorf("killed worker's lease was never re-issued; coordinator log:\n%s", coordOut)
	}
	if !strings.Contains(coordOut, "Fleet: all leases complete") {
		t.Errorf("merge banner missing from coordinator output:\n%s", coordOut)
	}
	// Surviving workers observe the completed run and exit cleanly.
	for name, w := range map[string]*exec.Cmd{"w2": survivor, "w3": replacement} {
		if err := w.Wait(); err != nil {
			b, _ := os.ReadFile(filepath.Join(dir, name+".log"))
			t.Errorf("worker %s exited with %v:\n%s", name, err, b)
		}
	}

	// The merged fleet view must equal the single-process run exactly:
	// stage percentiles (session-logical clocks) and the full export bytes.
	cleanStages := stageTable(t, cleanOut)
	fleetStages := stageTable(t, coordOut)
	if cleanStages != fleetStages {
		t.Errorf("per-stage timing diverges between single-process and fleet runs:\nsingle:\n%s\nfleet:\n%s",
			cleanStages, fleetStages)
	}
	cleanBytes := readExport(t, clean)
	fleetBytes := readExport(t, merged)
	if cleanBytes != fleetBytes {
		cl := strings.Split(cleanBytes, "\n")
		fl := strings.Split(fleetBytes, "\n")
		n := 0
		for n < len(cl) && n < len(fl) && cl[n] == fl[n] {
			n++
		}
		t.Fatalf("fleet export diverges from single-process run at line %d (single %d lines, fleet %d)",
			n+1, len(cl), len(fl))
	}
}

// TestFleetParamsPinCrawlKnobs pins the fleet fingerprint to every crawl
// knob that changes session bytes: a worker differing from the
// coordinator in any one of them must be refused, while spelling a
// default out explicitly must not matter.
func TestFleetParamsPinCrawlKnobs(t *testing.T) {
	base := core.Options{NumSites: 50, Seed: 42}
	want := fleetParams(base, 50)
	for name, mutate := range map[string]func(*core.Options){
		"-detector-train": func(o *core.Options) { o.DetectorTrainPages = 150 },
		"-fetch-timeout":  func(o *core.Options) { o.FetchTimeout = 250 * time.Millisecond },
		"-session-budget": func(o *core.Options) { o.SessionBudget = time.Second },
		"-retries":        func(o *core.Options) { o.MaxRetries = 5 },
	} {
		o := base
		mutate(&o)
		if got := fleetParams(o, 50); got == want {
			t.Errorf("%s does not change the fleet fingerprint (%s)", name, got)
		}
	}
	explicit := base
	explicit.DetectorTrainPages = 600
	explicit.FetchTimeout = browser.DefaultFetchTimeout
	explicit.SessionBudget = crawler.DefaultSessionBudget
	explicit.MaxRetries = farm.DefaultMaxRetries
	if got := fleetParams(explicit, 50); got != want {
		t.Errorf("explicit defaults change the fingerprint:\n got %s\nwant %s", got, want)
	}
}

// TestStatusAddrServesOnlyStatus pins the coordinator's -status-addr
// port to the read-only progress view: the lease protocol lives on
// -fleet-addr alone.
func TestStatusAddrServesOnlyStatus(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		URLs:   []string{"http://a.test/", "http://b.test/"},
		Params: fleet.Params{Sites: 2, Seed: 1, FeedURLs: 2},
		Root:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := serveStatus("127.0.0.1:0", coord.StatusHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + fleet.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s, want 200", fleet.PathStatus, resp.Status)
	}
	for _, path := range []string{fleet.PathLease, fleet.PathHeartbeat, fleet.PathResult} {
		resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(`{"worker":"w"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s on the status address = %s, want 404", path, resp.Status)
		}
	}
}
