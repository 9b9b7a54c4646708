// Command perfbench is the repository's crawl benchmark. One invocation
// runs one named workload, cold, from the seed on its command line: it
// builds the pipeline, crawls, exports, checks the export, and prints every
// metric with its unit. The last line of standard output is the JSON
// result. With -trace 1 it also wraps each layer's calls from outside,
// keeps the spans in memory, writes them to a span file at exit, and
// prints per-layer metrics instead of end-to-end ones. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/farm"
)

//go:embed digests.json
var digestsJSON []byte

// digests holds, per workload and corpus seed, the SHA-256 of the export a
// correct program writes.
type digests map[string]map[string]string

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// lookup returns the reference digest, or "" when none is kept.
func (d digests) lookup(workload string, seed int64) string {
	return d[workload][strconv.FormatInt(seed, 10)]
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is a metric with the sample count behind it (0 when the value is not
// a statistic over samples) and, for a withheld percentile, why.
type row struct {
	name string
	metric
	n    int
	note string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp identifies the box, toolchain and settings behind a result, so
// results from different ones are never compared silently.
type envStamp struct {
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seed       int64  `json:"seed"`
	Sites      int    `json:"sites"`
	Crawls     int    `json:"crawls"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Referenced counts the crawls whose export was checked against a
	// kept reference digest; every crawl also gets the other checks.
	Referenced int `json:"referenced_crawls"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 42, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 30, "measuring budget in seconds; crawls repeat while it lasts")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch files, span files and results")
	record := flag.Bool("record", false, "print each crawl's corpus seed and export digest, for digests.json, instead of measuring")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds >= 1\n", workloadNames())
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *trace == 1, *out, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(w workload, seed int64, seconds int, traced bool, out string, record bool) error {
	refs, err := loadDigests()
	if err != nil {
		return err
	}
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)
	workers := runtime.NumCPU()
	budget := time.Duration(seconds) * time.Second

	if record {
		return recordDigests(w, seed, workers, budget, work)
	}

	var (
		rows []row
		its  []iteration
		rec  *recorder
	)
	if traced {
		rec = newRecorder()
		rows, its, err = measureTraced(w, seed, workers, budget, work, refs, rec)
	} else {
		rows, its, err = measure(w, seed, workers, budget, work, refs)
	}
	if err != nil {
		return err
	}

	referenced := 0
	for _, it := range its {
		if it.referenced {
			referenced++
		}
	}
	env := envStamp{
		Workload: w.name, Trace: traced, Seed: seed, Sites: its[0].urls, Crawls: len(its),
		Seconds: seconds, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Workers: workers, CPUModel: cpuModel(), Commit: commit(),
		Referenced: referenced,
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for _, it := range its {
		res.Attempted += it.urls
		if it.checkErr != nil {
			res.Correct = false
			res.Failed += it.urls
			problems = append(problems, fmt.Sprintf("corpus seed %d: %v", it.seed, it.checkErr))
			continue
		}
		res.Failed += it.stats.Outcomes[farm.OutcomeLost] + it.stats.Outcomes[farm.OutcomePanic]
	}
	for _, r := range rows {
		if !validName(r.name) {
			return fmt.Errorf("metric name %q does not match %s", r.name, metricName)
		}
		res.Metrics[r.name] = r.metric
	}

	if err := os.MkdirAll(filepath.Join(out, "results"), 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, b2i(traced))
	if rec != nil {
		if err := os.MkdirAll(filepath.Join(out, "spans"), 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, "spans", tag+".jsonl")
		if err := rec.write(path, env); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)
	for _, p := range problems {
		fmt.Printf("check failed: %s\n", p)
	}
	printTable(rows)
	full, _ := json.MarshalIndent(struct {
		Env     envStamp       `json:"env"`
		Result  result         `json:"result"`
		Samples map[string]int `json:"samples"`
	}{env, res, sampleCounts(rows)}, "", "  ")
	if err := os.WriteFile(filepath.Join(out, "results", tag+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sampleCounts(rows []row) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		if r.n > 0 {
			out[r.name] = r.n
		}
	}
	return out
}

func printTable(rows []row) {
	sorted := append([]row(nil), rows...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].name < sorted[b].name })
	fmt.Printf("%-30s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, r := range sorted {
		n := ""
		if r.n > 0 {
			n = strconv.Itoa(r.n)
		}
		fmt.Printf("%-30s %14.6g %-6s %8s %s\n", r.name, r.Value, r.Unit, n, r.note)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the benchmark binary was built from, when the
// build saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// recordDigests crawls corpus after corpus like an untraced run and prints
// each crawl's corpus seed and export digest as one JSON line, in the
// shape digests.json keeps them.
func recordDigests(w workload, seed int64, workers int, budget time.Duration, dir string) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		cs := corpusSeed(seed, i)
		it, err := runIteration(w, cs, workers, nil, dir, plainCrawl, "")
		if err != nil {
			return err
		}
		if it.checkErr != nil {
			return fmt.Errorf("corpus seed %d: %w", cs, it.checkErr)
		}
		fmt.Printf("{\"workload\": %q, \"seed\": \"%d\", \"sha256\": %q}\n", w.name, cs, it.digest)
	}
	return nil
}
