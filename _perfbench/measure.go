package main

import (
	"time"

	"repro/internal/core"
)

// corpusSeed is the seed of crawl i of a run seeded with seed. Crawl 0
// uses the run's seed itself, so its export is the one phishcrawl writes
// for that seed; later crawls use seeds mixed from both (splitmix64), so
// a run's median averages over several corpora instead of repeating one.
func corpusSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}

// measure is the untraced run: cold build, crawl and export of one corpus
// after another while the budget lasts, each metric reported as the median
// over crawls.
func measure(w workload, seed int64, workers int, budget time.Duration, dir string, refs digests) ([]row, []iteration, error) {
	start := time.Now()
	var its []iteration
	for i := 0; ; i++ {
		t := time.Now()
		cs := corpusSeed(seed, i)
		it, err := runIteration(w, cs, workers, nil, dir, plainCrawl, refs.lookup(w.name, cs))
		if err != nil {
			return nil, nil, err
		}
		it.logs = nil
		its = append(its, it)
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}

	var setup, crawl, e2e, cpu []float64
	checksOK := true
	for _, it := range its {
		n := float64(it.urls)
		setup = append(setup, it.setup.Seconds())
		crawl = append(crawl, n/it.crawl.Seconds())
		e2e = append(e2e, n/it.e2e.Seconds())
		cpu = append(cpu, ms(it.cpu)/n)
		checksOK = checksOK && it.checkErr == nil
	}
	// Outcomes are a pure function of the corpus, so the failed share is
	// taken over the seed's own corpus (crawl 0), and repeats exactly for
	// a seed however many crawls the budget allowed.
	seedCrawl := its[0]
	failed := failedSessions(seedCrawl.stats.Outcomes, seedCrawl.urls, checksOK)
	k := len(its)
	return []row{
		{"setup_s", metric{median(setup), "s"}, k, ""},
		{"crawl_sites_per_s", metric{median(crawl), "1/s"}, k, ""},
		{"e2e_sites_per_s", metric{median(e2e), "1/s"}, k, ""},
		{"cpu_ms_per_site", metric{median(cpu), "ms"}, k, ""},
		{"peak_rss_mb", metric{peakRSSMB(), "MB"}, 0, ""},
		{"ok_share", metric{1 - failedShare(failed, seedCrawl.urls), "ratio"}, seedCrawl.urls, ""},
	}, its, nil
}

// measureTraced is the traced run. It times the set-up calls, crawls the
// first corpus untraced and then under the wrappers, and then crawls
// further corpora under the wrappers only while the budget lasts: the
// pair gives the tracing overhead, and the rest give samples. The two
// exports of the pair must be identical, which proves the wrappers
// transparent. The documents of each traced crawl are replayed through the
// browser sublayers right after it. Pipelines after the set-up reuse its
// trained models, so only the wrappers differ between the pair's crawls.
func measureTraced(w workload, seed int64, workers int, budget time.Duration, dir string, refs digests, rec *recorder) ([]row, []iteration, error) {
	start := time.Now()

	// Set-up calls: a cold pipeline build, then its parts on their own.
	p, err := core.NewPipeline(w.options(seed, workers))
	if err != nil {
		return nil, nil, err
	}
	rec.timed("core.feed", 0, -1, 0, func() { core.NewFeed(p.Opts) })
	rec.timed("core.train", 0, -1, 0, func() { _, err = core.TrainModels(p.Models.Params) })
	if err != nil {
		return nil, nil, err
	}
	if p.Triage != nil {
		if err := timedPlan(rec, p); err != nil {
			return nil, nil, err
		}
	}
	models := p.Models

	var plainIts, tracedIts []iteration
	for i := 0; ; i++ {
		cs := corpusSeed(seed, i)
		want := refs.lookup(w.name, cs)
		if i == 0 {
			plain, err := runIteration(w, cs, workers, models, dir, plainCrawl, want)
			if err != nil {
				return nil, nil, err
			}
			plain.logs = nil
			plainIts = append(plainIts, plain)
			want = plain.digest
		}
		t := time.Now()
		c := newCapture()
		ct := newCrawlTrace(rec, i+1, 0, c)
		traced, err := runIteration(w, cs, workers, models, dir, ct.crawl, want)
		if err != nil {
			return nil, nil, err
		}
		traced.referenced = refs.lookup(w.name, cs) != ""
		traced.fetchErrors, traced.fetchBytes = ct.fetchErrors.Load(), ct.fetchBytes.Load()
		replay(rec, c, models.Detector, models.FieldClassifier, traced.logs)
		traced.logs = nil
		tracedIts = append(tracedIts, traced)
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	rows := layerRows(rec, plainIts, tracedIts)
	return rows, append(plainIts, tracedIts...), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
