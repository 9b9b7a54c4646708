package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/sessionio"
	"repro/internal/triage"
)

// workload is one named, seeded configuration of the pipeline.
type workload struct {
	name string
	// sites is the corpus size of one crawl.
	sites int
	// journaled crawls through Pipeline.CrawlJournal under group commit
	// and exports what Journal.Sessions reads back; otherwise the crawl is
	// Pipeline.Crawl in memory.
	journaled bool
	// configure sets the workload's options on top of size, seed and
	// worker count.
	configure func(*core.Options)
}

// workloads are the benchmark's workloads. Each stresses different layers;
// README.md records why each exists and which layers it should move.
var workloads = []workload{
	{
		// The paper's design-pattern mix: every URL gets a full browser
		// session, so the CPU layers (render, OCR, vision) do the work.
		name:      "paper-mix",
		sites:     300,
		configure: func(*core.Options) {},
	},
	{
		// What an operator ships: operational faults under phishcrawl
		// -chaos's fetch deadline, cloaking kits with the uncloaking
		// budget that recovers all of them, and a durable journal.
		name:      "hostile-durable",
		sites:     200,
		journaled: true,
		configure: func(o *core.Options) {
			prof := chaos.DefaultProfile()
			o.Chaos = &prof
			o.FetchTimeout = 250 * time.Millisecond
			o.CloakRate = 0.3
			o.CloakRetries = 3
		},
	},
	{
		// A clone-heavy feed triaged before crawling: probes and the
		// campaign index decide, and few URLs get a browser session.
		name:  "clone-triage",
		sites: 1000,
		configure: func(o *core.Options) {
			o.MinCampaignSize = 12
			o.Triage = &triage.Options{}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) options(seed int64, workers int) core.Options {
	o := core.Options{NumSites: w.sites, Seed: seed, Workers: workers}
	w.configure(&o)
	return o
}

// chaosSeed picks the fault-assignment seed for a chaos workload's corpus:
// of a fixed sequence of candidates, starting with the pipeline's own
// default, the first whose fault mix over the corpus's hosts comes within
// two sites of the profile's rates in total, with the stall count exact
// (else the closest of them). Stalling sites set most of such a crawl's
// wall time, since every attempt waits out the fetch deadline; left to
// chance, their count would swing crawl time with the seed far more than
// any change to the program does.
func chaosSeed(opts core.Options) int64 {
	corpus, _ := core.NewFeed(opts)
	n := float64(len(corpus.Sites))
	p := *opts.Chaos
	want := map[chaos.Fault]int{
		chaos.FaultDead:        int(math.Round(p.DeadRate * n)),
		chaos.FaultStall:       int(math.Round(p.StallRate * n)),
		chaos.FaultSlow:        int(math.Round(p.SlowRate * n)),
		chaos.FaultServerError: int(math.Round(p.ServerErrorRate * n)),
		chaos.FaultTruncate:    int(math.Round(p.TruncateRate * n)),
		chaos.FaultTakedown:    int(math.Round(p.TakedownRate * n)),
		chaos.FaultFlaky:       int(math.Round(p.FlakyRate * n)),
	}
	best, bestDev := int64(0), math.MaxInt
	for k := 0; k < 4096 && bestDev > 2; k++ {
		in := chaos.Injector{Profile: p, Seed: corpusSeed(opts.Seed+7, k)}
		got := map[chaos.Fault]int{}
		for _, site := range corpus.Sites {
			got[in.FaultFor(site.Host)]++
		}
		dev := 0
		for f, w := range want {
			d := got[f] - w
			if d < 0 {
				d = -d
			}
			if f == chaos.FaultStall {
				d *= 3
			}
			dev += d
		}
		if dev < bestDev {
			best, bestDev = in.Seed, dev
		}
	}
	return best
}

// iteration is one pipeline build, crawl and export, with its checks.
type iteration struct {
	// seed is the corpus seed; referenced reports whether the export was
	// compared with a kept reference digest.
	seed       int64
	referenced bool
	urls       int
	setup      time.Duration
	// crawl runs from farm start until the last session is delivered
	// (farm.Stats.Elapsed).
	crawl time.Duration
	// e2e runs from the NewPipeline call until the export is fsync'd.
	e2e   time.Duration
	cpu   time.Duration
	stats farm.Stats
	// logs are the exported sessions; callers drop them once used, so a
	// run's memory does not grow with its number of crawls. full and pages
	// count the sessions that got a browser and the pages they visited.
	logs        []*crawler.SessionLog
	full, pages int

	writeDur, scanDur time.Duration
	exportBytes       int64
	journalBytes      int64
	digest            string
	rt                runtimeDelta
	// Traced crawls only: fetches that failed or answered 5xx, and
	// response body bytes the browser read.
	fetchErrors, fetchBytes int64

	checkErr error
}

// crawlFunc runs the crawl phase on a built pipeline. j is nil unless the
// workload is journaled; in-memory crawls return their logs.
type crawlFunc func(p *core.Pipeline, j *journal.Journal) ([]*crawler.SessionLog, farm.Stats, error)

// plainCrawl is the untraced crawl: exactly the entry points phishcrawl
// calls.
func plainCrawl(p *core.Pipeline, j *journal.Journal) ([]*crawler.SessionLog, farm.Stats, error) {
	if j == nil {
		p.Crawl()
		return p.Logs, p.Stats, nil
	}
	if _, err := p.CrawlJournal(j, 0); err != nil {
		return nil, p.Stats, err
	}
	return nil, p.Stats, nil
}

// runIteration builds the pipeline (cold when models is nil: the shared
// model cache is dropped so training is paid again), crawls with crawl,
// exports under dir, and checks the export against want ("" = no
// reference). Errors from the pipeline itself are returned; a failed
// output check is recorded in checkErr.
func runIteration(w workload, seed int64, workers int, models *core.Models, dir string, crawl crawlFunc, want string) (iteration, error) {
	it := iteration{seed: seed, referenced: want != ""}
	opts := w.options(seed, workers)
	opts.Models = models
	if opts.Chaos != nil {
		opts.ChaosSeed = chaosSeed(opts)
	}
	if models == nil {
		core.ResetModelCache()
	}
	// Start every iteration from a collected heap, so one iteration's
	// garbage is not charged to the next one's set-up.
	runtime.GC()
	if err := os.RemoveAll(dir); err != nil {
		return it, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return it, err
	}

	t0 := time.Now()
	p, err := core.NewPipeline(opts)
	if err != nil {
		return it, fmt.Errorf("building pipeline: %w", err)
	}
	it.setup = time.Since(t0)
	it.urls = len(p.Feed.URLs())

	var j *journal.Journal
	jdir := filepath.Join(dir, "journal")
	if w.journaled {
		if j, err = journal.Open(jdir, journal.Options{Sync: journal.SyncGroup}); err != nil {
			return it, fmt.Errorf("opening journal: %w", err)
		}
	}

	rt0 := readRuntime()
	cpu0 := cpuTime()
	logs, stats, err := crawl(p, j)
	it.cpu = cpuTime() - cpu0
	it.rt = readRuntime().sub(rt0)
	it.stats = stats
	it.crawl = stats.Elapsed
	if err != nil {
		if j != nil {
			j.Close()
		}
		return it, fmt.Errorf("crawling: %w", err)
	}
	if j != nil {
		t := time.Now()
		logs, err = j.Sessions()
		it.scanDur = time.Since(t)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return it, fmt.Errorf("reading journal back: %w", err)
		}
		it.journalBytes = dirBytes(jdir)
	}

	export := filepath.Join(dir, "export.jsonl")
	t := time.Now()
	if err := sessionio.WriteFile(export, logs); err != nil {
		return it, fmt.Errorf("exporting: %w", err)
	}
	it.writeDur = time.Since(t)
	it.e2e = time.Since(t0)

	it.logs = logs
	for _, lg := range logs {
		if !fastPathed(lg) {
			it.full++
			it.pages += len(lg.Pages)
		}
	}

	it.digest, it.exportBytes, it.checkErr = checkExport(export, it.urls, stats, want)
	fmt.Fprintf(os.Stderr, "crawl: %d URLs, set-up %.3fs, crawl %.3fs (%.1f sites/s), cpu %.2f ms/site, e2e %.3fs, export %.12s\n",
		it.urls, it.setup.Seconds(), it.crawl.Seconds(), float64(it.urls)/it.crawl.Seconds(), ms(it.cpu)/float64(it.urls), it.e2e.Seconds(), it.digest)
	return it, nil
}

// checkExport verifies one crawl's export: its SHA-256 matches want (when
// a reference exists), outcomes account for every feed URL, no session was
// lost or panicked, and reading the file back returns every session in
// feed order, which encode back to the same bytes.
func checkExport(path string, urls int, st farm.Stats, want string) (digest string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	size, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", size, err
	}
	digest = hex.EncodeToString(h.Sum(nil))
	if want != "" && digest != want {
		return digest, size, fmt.Errorf("export sha256 %s, reference %s", digest, want)
	}
	sum := 0
	for _, n := range st.Outcomes {
		sum += n
	}
	if sum != urls {
		return digest, size, fmt.Errorf("outcomes sum to %d, feed has %d URLs", sum, urls)
	}
	if n := st.Outcomes[farm.OutcomeLost] + st.Outcomes[farm.OutcomePanic] + st.Panics; n > 0 {
		return digest, size, fmt.Errorf("%d sessions lost or panicked", n)
	}
	back, err := sessionio.ReadFile(path)
	if err != nil {
		return digest, size, err
	}
	if len(back) != urls {
		return digest, size, fmt.Errorf("export reads back %d sessions, want %d", len(back), urls)
	}
	for i, lg := range back {
		if lg.FeedIndex != i {
			return digest, size, fmt.Errorf("export line %d holds feed index %d", i+1, lg.FeedIndex)
		}
	}
	// What was read back must encode to the very bytes that were written.
	h.Reset()
	if err := sessionio.Write(h, back); err != nil {
		return digest, size, err
	}
	if again := hex.EncodeToString(h.Sum(nil)); again != digest {
		return digest, size, fmt.Errorf("export re-encodes to sha256 %s", again)
	}
	return digest, size, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeDelta is what the Go runtime did between two reads.
type runtimeDelta struct {
	allocBytes float64
	// gcCPU and usedCPU are runtime estimates; usedCPU excludes idle time.
	gcCPU, usedCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeDelta{
		allocBytes: val(s[0].Value),
		gcCPU:      val(s[1].Value),
		usedCPU:    val(s[2].Value) - val(s[3].Value),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU}
}
