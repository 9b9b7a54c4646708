package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/journal"
	"repro/internal/phishserver"
	"repro/internal/triage"
)

// crawlTrace wraps one crawl's layer boundaries from outside the program:
// the serving transport (through a replacement Crawler.NewBrowser), and the
// farm's FastPath and Sink hooks. Fetches are linked to the session whose
// URL host they hit while that session is open.
type crawlTrace struct {
	rec  *recorder
	iter int
	// parent is the span fetches link to when no session is open for
	// their host (the triage plan during set-up; 0 otherwise).
	parent int64
	// capture keeps fetched documents and images for the replay.
	capture *capture

	fetchErrors atomic.Int64
	fetchBytes  atomic.Int64

	mu       sync.Mutex
	sessions map[int]openSession
	byHost   map[string][]int
}

type openSession struct {
	id    int64
	start int64
	host  string
}

func newCrawlTrace(rec *recorder, iter int, parent int64, capture *capture) *crawlTrace {
	return &crawlTrace{
		rec: rec, iter: iter, parent: parent, capture: capture,
		sessions: map[int]openSession{}, byHost: map[string][]int{},
	}
}

func hostOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// open starts the session span of feed index idx (its attempt-0 FastPath
// stamp) and returns its ID.
func (ct *crawlTrace) open(idx int, rawURL string) int64 {
	s := openSession{id: ct.rec.newID(), start: ct.rec.now(), host: hostOf(rawURL)}
	ct.mu.Lock()
	ct.sessions[idx] = s
	ct.byHost[s.host] = append(ct.byHost[s.host], idx)
	ct.mu.Unlock()
	return s.id
}

// land ends the session span of idx (its Sink delivery) and returns its ID.
func (ct *crawlTrace) land(idx int) int64 {
	end := ct.rec.now()
	ct.mu.Lock()
	s := ct.sessions[idx]
	delete(ct.sessions, idx)
	open := ct.byHost[s.host]
	for i, v := range open {
		if v == idx {
			open = append(open[:i], open[i+1:]...)
			break
		}
	}
	if len(open) == 0 {
		delete(ct.byHost, s.host)
	} else {
		ct.byHost[s.host] = open
	}
	ct.mu.Unlock()
	ct.rec.add(span{ID: s.id, Name: "crawler.session", Start: s.start, End: end, Feed: idx, Iter: ct.iter})
	return s.id
}

// sessionFor links a fetch of host to the one open session on that host.
func (ct *crawlTrace) sessionFor(host string) (parent int64, feed int) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if open := ct.byHost[host]; len(open) == 1 {
		return ct.sessions[open[0]].id, open[0]
	}
	return ct.parent, -1
}

// timedTransport times RoundTrip and counts the bytes the browser reads
// from each response body.
type timedTransport struct {
	inner http.RoundTripper
	ct    *crawlTrace
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct := t.ct
	start := ct.rec.now()
	resp, err := t.inner.RoundTrip(req)
	end := ct.rec.now()
	parent, feed := ct.sessionFor(req.URL.Hostname())
	failed := err != nil || resp.StatusCode >= 500
	if failed {
		ct.fetchErrors.Add(1)
	}
	ct.rec.add(span{ID: ct.rec.newID(), Parent: parent, Name: "fetch", Start: start, End: end, Feed: feed, Iter: ct.iter, Err: failed})
	if err != nil {
		return resp, err
	}
	body := &countingBody{inner: resp.Body, ct: ct}
	if ct.capture != nil && resp.StatusCode < 300 {
		body.keep = &bytes.Buffer{}
		body.url = req.URL.String()
		body.html = strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html")
		body.feed = feed
	}
	resp.Body = body
	return resp, nil
}

type countingBody struct {
	inner io.ReadCloser
	ct    *crawlTrace

	keep *bytes.Buffer // nil unless capturing
	url  string
	html bool
	feed int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.inner.Read(p)
	b.ct.fetchBytes.Add(int64(n))
	if b.keep != nil {
		b.keep.Write(p[:n])
	}
	return n, err
}

func (b *countingBody) Close() error {
	if b.keep != nil {
		b.ct.capture.add(b.url, b.html, b.feed, b.keep.Bytes())
		b.keep = nil
	}
	return b.inner.Close()
}

// capture holds the documents and images one traced crawl fetched. A
// document body fetched again (a form re-served after a rejected submit, a
// page every clone of a kit serves) is kept once with its fetch count: the
// sublayers are deterministic, so replaying it again would repeat the same
// work.
type capture struct {
	mu     sync.Mutex
	docs   []capturedDoc
	seen   map[string]int // body -> index in docs
	images map[string][]byte
}

type capturedDoc struct {
	url     string
	feed    int
	body    string
	fetches int
}

func newCapture() *capture {
	return &capture{seen: map[string]int{}, images: map[string][]byte{}}
}

func (c *capture) add(rawURL string, html bool, feed int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !html {
		if _, ok := c.images[rawURL]; !ok {
			c.images[rawURL] = append([]byte(nil), body...)
		}
		return
	}
	if i, ok := c.seen[string(body)]; ok {
		c.docs[i].fetches++
		return
	}
	c.seen[string(body)] = len(c.docs)
	c.docs = append(c.docs, capturedDoc{url: rawURL, feed: feed, body: string(body), fetches: 1})
}

// newBrowserFor is the replacement Crawler.NewBrowser: the pipeline's own
// serving transport (fault injector included) behind the timing wrapper.
func newBrowserFor(p *core.Pipeline, ct *crawlTrace) func() *browser.Browser {
	var inner http.RoundTripper = phishserver.Transport{Registry: p.Registry}
	if p.Injector != nil {
		inner = p.Injector
	}
	tr := timedTransport{inner: inner, ct: ct}
	return func() *browser.Browser {
		return browser.New(browser.Options{Transport: tr, Timeout: p.Opts.FetchTimeout})
	}
}

// crawl is the traced counterpart of plainCrawl. It drives the farm with
// the configuration Pipeline.Crawl and Pipeline.CrawlJournal build, plus
// the FastPath and Sink wrappers; the export digest check proves the
// sessions it produces are the untraced ones, byte for byte.
func (ct *crawlTrace) crawl(p *core.Pipeline, j *journal.Journal) ([]*crawler.SessionLog, farm.Stats, error) {
	urls := p.Feed.URLs()
	c := *p.Crawler
	c.NewBrowser = newBrowserFor(p, ct)
	cfg := farm.Config{
		Workers:    p.Opts.Workers,
		Crawler:    &c,
		MaxRetries: p.Opts.MaxRetries,
		RetryBase:  p.Opts.RetryBase,
		RetryMax:   p.Opts.RetryMax,
		RetrySeed:  p.Opts.Seed + 8,
		FastPath: func(idx int, u string) *crawler.SessionLog {
			id := ct.open(idx, u)
			if p.Triage == nil {
				return nil
			}
			var lg *crawler.SessionLog
			ct.rec.timed("triage.fastpath", id, idx, ct.iter, func() { lg = p.Triage.FastPath(idx, u) })
			return lg
		},
	}
	if j == nil {
		logs := make([]*crawler.SessionLog, len(urls))
		cfg.Sink = func(idx int, lg *crawler.SessionLog) error {
			ct.land(idx)
			logs[idx] = lg
			return nil
		}
		stats, err := farm.RunStream(cfg, urls)
		analysis.AttachMeta(logs, p.Feed.Filter())
		for _, lg := range logs {
			p.Triage.Stamp(lg)
		}
		return logs, stats, err
	}

	if err := journalConfig(p, j); err != nil {
		return nil, farm.Stats{}, err
	}
	byURL := analysis.MetaIndex(p.Feed.Filter())
	cfg.SinkConcurrent = true
	cfg.Sink = func(idx int, lg *crawler.SessionLog) error {
		id := ct.land(idx)
		analysis.AttachMetaIndexed(lg, byURL)
		p.Triage.Stamp(lg)
		var err error
		ct.rec.timed("journal.append", id, idx, ct.iter, func() { err = j.AppendSession(lg) })
		return err
	}
	stats, err := farm.RunStream(cfg, urls)
	if err != nil {
		return nil, stats, err
	}
	return nil, stats, j.AppendStats(stats)
}

// journalConfig writes the records CrawlJournal writes before the first
// session of a fresh journal: the triage plan and the cloak configuration.
func journalConfig(p *core.Pipeline, j *journal.Journal) error {
	if p.Triage != nil {
		enc, err := p.Triage.Encode()
		if err != nil {
			return err
		}
		if err := j.AppendTriage(enc); err != nil {
			return err
		}
	}
	if p.Opts.CloakRate > 0 || p.Opts.CloakRetries > 0 {
		enc, err := json.Marshal(struct {
			Rate    float64 `json:"rate"`
			Retries int     `json:"retries"`
		}{p.Opts.CloakRate, p.Opts.CloakRetries})
		if err != nil {
			return err
		}
		return j.AppendCloak(enc)
	}
	return nil
}

// timedPlan rebuilds the pipeline's triage plan under a span, probing
// through the timing transport, and checks it encodes to the same bytes
// as the plan NewPipeline built.
func timedPlan(rec *recorder, p *core.Pipeline) error {
	id := rec.newID()
	ct := newCrawlTrace(rec, 0, id, nil)
	start := rec.now()
	plan := triage.BuildPlan(p.Feed.URLs(), triage.Config{
		Options:     *p.Opts.Triage,
		Workers:     p.Opts.Workers,
		NewBrowser:  newBrowserFor(p, ct),
		BrandTokens: brandTokens(),
	})
	rec.add(span{ID: id, Name: "triage.plan", Start: start, End: rec.now(), Feed: -1})
	got, err := plan.Encode()
	if err != nil {
		return err
	}
	want, err := p.Triage.Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("traced triage plan differs from the pipeline's")
	}
	return nil
}

// brandTokens is the lexical brand vocabulary NewPipeline hands the triage
// planner: the leading word of each brand name and the first label of its
// legitimate domain, lowercased, letters only, at least three long,
// deduplicated and sorted. timedPlan's encode comparison catches drift.
func brandTokens() []string {
	seen := map[string]bool{}
	var out []string
	add := func(tok string) {
		tok = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, strings.ToLower(tok))
		if len(tok) >= 3 && !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	for _, b := range brands.All() {
		add(strings.Fields(b.Name)[0])
		add(strings.SplitN(b.LegitDomain, ".", 2)[0])
	}
	sort.Strings(out)
	return out
}
