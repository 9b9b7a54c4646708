package main

import "strings"

// layerRows derives the per-layer metrics of a traced run. plain are its
// untraced crawls (farm counts, runtime reads, the overhead baseline);
// traced are the crawls taken under the wrappers and replayed. Per-site
// figures divide by the feed URLs of the crawls the samples came from.
func layerRows(rec *recorder, plain, traced []iteration) []row {
	tracedURLs := 0.0
	for _, it := range traced {
		tracedURLs += float64(it.urls)
	}
	var rows []row
	add := func(name string, v float64, unit string, n int) {
		rows = append(rows, row{name: name, metric: metric{v, unit}, n: n})
	}
	// pct adds name as percentile q of the durations of spans, in unit
	// (us or ms), withholding it when too few samples lie beyond it.
	pct := func(name string, spans []span, q float64, unit string) {
		var xs []float64
		for _, s := range spans {
			for k := 0; k < s.weight(); k++ {
				xs = append(xs, scale(s.dur(), unit))
			}
		}
		v, ok := percentile(xs, q)
		r := row{name: name, metric: metric{v, unit}, n: len(xs)}
		switch {
		case len(xs) == 0:
			r.note = "layer did not run"
		case !ok:
			r.Value = 0
			r.note = "withheld: fewer than 10 samples beyond it"
		}
		rows = append(rows, r)
	}
	perSite := func(name string, spans []span, denom float64) {
		add(name, scale(total(spans), "ms")/denom, "ms", samples(spans))
	}

	// core: set-up parts, timed once.
	add("core.feed_s", scale(total(rec.named("core.feed")), "s"), "s", 0)
	add("core.train_s", scale(total(rec.named("core.train")), "s"), "s", 0)

	// Sessions that got a browser, and the pages they visited.
	full, pages := 0, 0
	for _, it := range traced {
		full += it.full
		pages += it.pages
	}

	// triage: the plan in set-up, the fast-path hook in the crawl.
	plan := rec.named("triage.plan")
	add("triage.plan_ms_per_url", scale(total(plan), "ms")/float64(traced[0].urls), "ms", len(plan))
	pct("triage.fastpath_us_p50", rec.named("triage.fastpath"), 0.5, "us")
	add("triage.full_share", ratio(full, int(tracedURLs), len(plan) > 0), "ratio", 0)

	// fetch: every RoundTrip of the traced crawls (set-up probes excluded).
	var fetches []span
	for _, s := range rec.named("fetch") {
		if s.Iter > 0 {
			fetches = append(fetches, s)
		}
	}
	var fetchErrors, fetchBytes int64
	for _, it := range traced {
		fetchErrors += it.fetchErrors
		fetchBytes += it.fetchBytes
	}
	add("fetch.requests_per_site", float64(len(fetches))/tracedURLs, "count", len(fetches))
	pct("fetch.us_p50", fetches, 0.5, "us")
	pct("fetch.us_p99", fetches, 0.99, "us")
	add("fetch.error_share", ratio(int(fetchErrors), len(fetches), true), "ratio", len(fetches))
	add("fetch.kb_per_site", float64(fetchBytes)/1024/tracedURLs, "KB", 0)

	// farm: counts of the untraced crawls.
	var retries, fast, degraded, plainURLs int
	for _, it := range plain {
		retries += it.stats.Retries
		fast += it.stats.FastPathed
		degraded += it.stats.Degraded
		plainURLs += it.urls
	}
	add("farm.retries_per_site", float64(retries)/float64(plainURLs), "count", 0)
	add("farm.fastpath_share", ratio(fast, plainURLs, true), "ratio", 0)
	add("farm.degraded_share", ratio(degraded, plainURLs, true), "ratio", 0)

	// crawler: one session span per URL and traced crawl, from the
	// attempt-0 FastPath stamp to Sink delivery; self time excludes the
	// session's fetches.
	sessions := rec.named("crawler.session")
	children := map[int64][]interval{}
	for _, f := range fetches {
		if f.Parent != 0 {
			children[f.Parent] = append(children[f.Parent], interval{f.Start, f.End})
		}
	}
	self := make([]span, len(sessions))
	for i, s := range sessions {
		self[i] = span{End: selfTime(interval{s.Start, s.End}, children[s.ID])}
	}
	pct("crawler.session_ms_p50", sessions, 0.5, "ms")
	pct("crawler.session_ms_p99", sessions, 0.99, "ms")
	pct("crawler.session_self_ms_p50", self, 0.5, "ms")
	add("crawler.pages_per_session", ratio(pages, full, true), "count", full)
	cloak := 0
	for _, it := range traced {
		cloak += it.stats.CloakAttempts
	}
	add("crawler.cloak_attempts_per_site", float64(cloak)/tracedURLs, "count", 0)

	// Browser sublayers and the classifier: the replay of each traced
	// crawl.
	for _, l := range []struct {
		span string
		p99  bool
	}{
		{"dom.parse", true},
		{"layout.compute", false},
		{"render.page", true},
		{"ocr.page", true},
		{"vision.detect", true},
		{"textclass.predict", false},
	} {
		spans := rec.named(l.span)
		pct(l.span+"_us_p50", spans, 0.5, "us")
		if l.p99 {
			pct(l.span+"_us_p99", spans, 0.99, "us")
		}
		layer, _, _ := strings.Cut(l.span, ".")
		perSite(layer+".ms_per_site", spans, tracedURLs)
	}

	// journal: appends in the sink, the size on disk, the read-back.
	appends := rec.named("journal.append")
	pct("journal.append_us_p50", appends, 0.5, "us")
	pct("journal.append_us_p99", appends, 0.99, "us")
	var jbytes, scans, writes, mbs []float64
	for _, it := range traced {
		jbytes = append(jbytes, float64(it.journalBytes)/1024/float64(it.urls))
		scans = append(scans, it.scanDur.Seconds())
		writes = append(writes, it.writeDur.Seconds())
		mbs = append(mbs, float64(it.exportBytes)/1e6)
	}
	add("journal.kb_per_session", median(jbytes), "KB", 0)
	add("journal.scan_s", median(scans), "s", len(scans))
	add("sessionio.write_s", median(writes), "s", len(writes))
	add("sessionio.mb", median(mbs), "MB", 0)

	// runtime: two reads around each untraced crawl.
	var alloc, gc, used float64
	for _, it := range plain {
		alloc += it.rt.allocBytes
		gc += it.rt.gcCPU
		used += it.rt.usedCPU
	}
	add("runtime.alloc_mb_per_site", alloc/1e6/float64(plainURLs), "MB", 0)
	gcShare := 0.0
	if used > 0 {
		gcShare = gc / used
	}
	add("runtime.gc_cpu_share", gcShare, "ratio", 0)

	// trace: what the wrappers cost the crawl of the first corpus, which
	// was crawled both ways.
	add("trace.overhead_share", 1-crawlRate(traced[0])/crawlRate(plain[0]), "ratio", 0)
	return rows
}

func crawlRate(it iteration) float64 { return float64(it.urls) / it.crawl.Seconds() }

// total is the summed duration of spans, each counted for its weight.
func total(spans []span) int64 {
	var t int64
	for _, s := range spans {
		t += s.dur() * int64(s.weight())
	}
	return t
}

func samples(spans []span) int {
	n := 0
	for _, s := range spans {
		n += s.weight()
	}
	return n
}

// scale converts nanoseconds to unit (s, ms or us).
func scale(ns int64, unit string) float64 {
	switch unit {
	case "s":
		return float64(ns) / 1e9
	case "ms":
		return float64(ns) / 1e6
	}
	return float64(ns) / 1e3
}

// ratio is num/den, or 0 when den is 0 or the layer did not run.
func ratio(num, den int, ran bool) float64 {
	if den == 0 || !ran {
		return 0
	}
	return float64(num) / float64(den)
}
