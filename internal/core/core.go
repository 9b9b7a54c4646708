// Package core is the public facade of the PhishInPatterns reproduction:
// it wires the full measurement pipeline of Figure 6 — live phishing feed,
// intelligent crawler (with its trained input-field classifier, OCR engine
// and object detector), crawl farm, and data analyzer — into a single
// Pipeline that callers configure with a corpus size and a seed. The cmd/
// tools, the examples, and the benchmark harness are all thin wrappers over
// this package.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/brands"
	"repro/internal/browser"
	"repro/internal/chaos"
	"repro/internal/crawler"
	"repro/internal/farm"
	"repro/internal/feed"
	"repro/internal/journal"
	"repro/internal/phash"
	"repro/internal/phishserver"
	"repro/internal/sitegen"
	"repro/internal/termclass"
	"repro/internal/textclass"
	"repro/internal/triage"
	"repro/internal/vision"
	"repro/internal/visualphish"
)

// Options configures a Pipeline.
type Options struct {
	// NumSites is the corpus size (paper scale: 51,859). Default 1,000.
	NumSites int
	// Seed drives all generation and training randomness.
	Seed int64
	// Workers is the farm parallelism (default 30, the paper's setting).
	Workers int
	// DetectorTrainPages is the number of generated pages the object
	// detector is fitted on (paper: 10,000). Default 600, which reaches
	// comparable accuracy on this substrate far faster.
	DetectorTrainPages int

	// Chaos, when non-nil, wraps the serving transport in the fault
	// injector so the synthetic feed exhibits the dead/slow/flaky/5xx mix
	// a real reported-URL feed does. nil serves a perfectly healthy feed.
	Chaos *chaos.Profile
	// ChaosSeed seeds fault assignment (0 derives Seed+7). Faults are a
	// pure function of (ChaosSeed, host), so runs are reproducible.
	ChaosSeed int64
	// SessionBudget bounds each session's wall clock (0 = crawler
	// default; negative = unlimited).
	SessionBudget time.Duration
	// FetchTimeout bounds each browser fetch (0 = browser default).
	FetchTimeout time.Duration
	// MaxRetries, RetryBase, and RetryMax configure the farm's retry
	// queue (zero values = farm defaults; MaxRetries < 0 disables).
	MaxRetries int
	RetryBase  time.Duration
	RetryMax   time.Duration

	// Triage, when non-nil, enables the pre-session triage funnel
	// (internal/triage): feed URLs are lexically scored, probed once, and
	// clustered into a campaign near-duplicate index before the crawl, and
	// URLs attributed to an indexed campaign (or cut by top-K) take a
	// fast-path session instead of a full browser crawl. The plan is a
	// pure function of (feed, Triage options), so it is identical across
	// worker counts, resumes, and fleet members. nil disables triage.
	Triage *triage.Options
	// MinCampaignSize clamps generated campaign sizes from below — the
	// clone-heavy-feed knob for triage experiments (0 = the paper's
	// distribution). It changes the corpus, so every process in a fleet
	// must agree on it.
	MinCampaignSize int

	// CloakRate is the site-weighted fraction of generated campaigns that
	// cloak: their kits serve a benign decoy unless the request passes the
	// campaign's gate (user-agent, referrer, repeat-visit cookie, language,
	// forwarded-for, or a JS-capability probe). 0 disables cloaking and
	// keeps the corpus byte-identical to earlier seeds. It changes the
	// corpus, so every process in a fleet must agree on it.
	CloakRate float64
	// CloakRetries is the adaptive uncloaking budget: how many re-crawls
	// with a mutated profile a session landing on a benign decoy may spend
	// (0 = honest single crawl, the pre-cloaking behaviour).
	CloakRetries int

	// Models, when non-nil, injects an already-trained model bundle and
	// skips training entirely; the caller vouches that it was trained with
	// this pipeline's Seed and DetectorTrainPages. nil uses the
	// process-wide shared cache (SharedModels), so repeated pipelines with
	// equal params train once.
	Models *Models
}

// WithDefaults returns o with every zero knob replaced by the value the
// pipeline actually runs with, including the browser, crawler, and farm
// defaults. Two option sets with equal WithDefaults crawl identical
// sessions, which is what a fleet fingerprints.
func (o Options) WithDefaults() Options {
	if o.NumSites <= 0 {
		o.NumSites = 1000
	}
	if o.Workers <= 0 {
		o.Workers = farm.DefaultWorkers
	}
	if o.DetectorTrainPages <= 0 {
		o.DetectorTrainPages = 600
	}
	if o.FetchTimeout <= 0 {
		o.FetchTimeout = browser.DefaultFetchTimeout
	}
	if o.SessionBudget == 0 {
		o.SessionBudget = crawler.DefaultSessionBudget
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = farm.DefaultMaxRetries
	}
	return o
}

// Pipeline is the assembled measurement system.
type Pipeline struct {
	Opts     Options
	Corpus   *sitegen.Corpus
	Feed     *feed.Feed
	Registry *phishserver.Registry

	// Models is the trained bundle this pipeline crawls with — shared
	// read-only with every other pipeline built from the same params
	// unless Options.Models injected a private one. The individual model
	// fields below alias it (kept for source compatibility); none may be
	// mutated.
	Models *Models

	FieldClassifier  *textclass.Model
	Detector         *vision.Detector
	TermClassifier   *termclass.Classifier
	Gallery          *visualphish.Gallery
	CaptchaExemplars []phash.Hash

	Crawler *crawler.Crawler
	// Injector is the fault-injection layer (nil when Options.Chaos is
	// nil); its FaultFor/Summary expose the injected ground truth.
	Injector *chaos.Injector

	// Triage is the precomputed triage plan (nil when Options.Triage is
	// nil): the per-URL fast-path/full verdicts and the campaign
	// near-duplicate index, derived before any crawl session runs.
	Triage *triage.Plan

	// Monitor, when set before crawling, receives live run progress
	// (completions, retries, stage latencies) for cmd/phishcrawl's status
	// endpoint and progress line. nil disables progress tracking.
	Monitor *farm.Monitor

	// Crawl outputs.
	Logs  []*crawler.SessionLog
	Stats farm.Stats
}

// NewFeed builds only the deterministic URL universe for opts — the
// corpus and feed, no model training, no crawler. It is what a fleet
// coordinator derives its lease ranges from: every process that shares
// (-sites, -seed) derives exactly this feed, so the coordinator can shard
// by index and never ship a URL over the wire.
func NewFeed(opts Options) (*sitegen.Corpus, *feed.Feed) {
	opts = opts.WithDefaults()
	params := sitegen.ScaledParams(opts.NumSites, opts.Seed)
	params.MinCampaignSize = opts.MinCampaignSize
	params.CloakRate = opts.CloakRate
	c := sitegen.Generate(params)
	return c, feed.FromCorpus(c, opts.Seed+1)
}

// NewPipeline generates the corpus, trains every model, and assembles the
// crawler; call Crawl to run the measurement.
func NewPipeline(opts Options) (*Pipeline, error) {
	opts = opts.WithDefaults()
	p := &Pipeline{Opts: opts}

	// Corpus and feed.
	p.Corpus, p.Feed = NewFeed(opts)

	// Serving registry: every phishing site plus the benign hosts terminal
	// redirects land on.
	p.Registry = phishserver.NewRegistry()
	for _, s := range p.Corpus.Sites {
		p.Registry.AddSite(s)
	}
	for _, b := range brands.All() {
		p.Registry.AddBenignHost(b.LegitDomain)
	}
	for _, h := range []string{"example.com", "example.org", "example.net", "google.com", "youtube.com", "yahoo.com", "godaddy.com", "live.com"} {
		p.Registry.AddBenignHost(h)
	}

	// Models: an injected bundle wins; otherwise the process-wide cache
	// returns (and on first use trains) the bundle for this pipeline's
	// params, so repeated NewPipeline calls — bench iterations, resume
	// runs, worker fleets — stop retraining identical models.
	m := opts.Models
	if m == nil {
		var err error
		m, err = SharedModels(ModelParams{Seed: opts.Seed, DetectorTrainPages: opts.DetectorTrainPages})
		if err != nil {
			return nil, err
		}
	}
	p.Models = m
	p.FieldClassifier = m.FieldClassifier
	p.Detector = m.Detector
	p.TermClassifier = m.TermClassifier
	p.Gallery = m.Gallery
	p.CaptchaExemplars = m.CaptchaExemplars

	// Crawler template. The serving transport is optionally wrapped in
	// the fault injector, scoped to phishing hosts so benign redirect
	// targets stay reachable.
	var transport http.RoundTripper = phishserver.Transport{Registry: p.Registry}
	if opts.Chaos != nil {
		chaosSeed := opts.ChaosSeed
		if chaosSeed == 0 {
			chaosSeed = opts.Seed + 7
		}
		phishHosts := make(map[string]bool, len(p.Corpus.Sites))
		for _, s := range p.Corpus.Sites {
			phishHosts[s.Host] = true
		}
		p.Injector = &chaos.Injector{
			Profile:    *opts.Chaos,
			Seed:       chaosSeed,
			Inner:      transport,
			InjectHost: func(host string) bool { return phishHosts[host] },
		}
		transport = p.Injector
	}
	p.Crawler = &crawler.Crawler{
		Classifier: p.FieldClassifier,
		Detector:   p.Detector,
		NewBrowser: func() *browser.Browser {
			return browser.New(browser.Options{Transport: transport, Timeout: opts.FetchTimeout})
		},
		SessionBudget: opts.SessionBudget,
		FakerSeed:     opts.Seed + 6,
		CloakRetries:  opts.CloakRetries,
		Pool:          crawler.NewSessionPool(),
	}

	// Triage plan: built before any crawl, over the same browser factory
	// (and therefore the same chaos-wrapped transport) the crawler uses.
	// Probing consumes each URL's first connection exactly once per
	// process, which keeps even the injector's stateful flaky-connection
	// budget identical across runs, resumes, and fleet members.
	if opts.Triage != nil {
		p.Triage = triage.BuildPlan(p.Feed.URLs(), triage.Config{
			Options:     *opts.Triage,
			Workers:     opts.Workers,
			NewBrowser:  p.Crawler.NewBrowser,
			BrandTokens: brandTokens(),
		})
	}
	return p, nil
}

// brandTokens derives the lowercase brand vocabulary for the lexical
// brand-in-host feature from the brand catalogue: the leading word of each
// brand name plus the registrable label of its legitimate domain, deduped
// and sorted so the scorer's input is deterministic.
func brandTokens() []string {
	seen := map[string]bool{}
	var out []string
	add := func(tok string) {
		tok = strings.ToLower(tok)
		tok = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, tok)
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

// farmConfig assembles the farm configuration from the pipeline options.
func (p *Pipeline) farmConfig() farm.Config {
	cfg := farm.Config{
		Workers:    p.Opts.Workers,
		Crawler:    p.Crawler,
		MaxRetries: p.Opts.MaxRetries,
		RetryBase:  p.Opts.RetryBase,
		RetryMax:   p.Opts.RetryMax,
		RetrySeed:  p.Opts.Seed + 8,
		Monitor:    p.Monitor,
	}
	if p.Triage != nil {
		cfg.FastPath = p.Triage.FastPath
	}
	return cfg
}

// Crawl runs the farm over the filtered feed and attaches feed metadata to
// the session logs.
func (p *Pipeline) Crawl() { p.CrawlSample(0) }

// CrawlSample crawls only the first n feed entries (0 = all; for quick
// looks and examples); metadata is attached as in Crawl.
func (p *Pipeline) CrawlSample(n int) {
	urls := p.Feed.URLs()
	if n > 0 && n < len(urls) {
		urls = urls[:n]
	}
	p.Logs, p.Stats = farm.Run(p.farmConfig(), urls)
	analysis.AttachMeta(p.Logs, p.Feed.Filter())
	for _, lg := range p.Logs {
		p.Triage.Stamp(lg)
	}
}

// ensureTriageJournaled reconciles this pipeline's triage plan with the
// journal's plan record. A fresh triage-enabled journal gets the encoded
// plan appended before any session; a resumed one must hold a record that
// byte-matches the locally rebuilt plan (the plan is a pure function of the
// feed and the triage flags, so any mismatch means the journal belongs to a
// different triage universe). A journal with sessions but no plan record
// was recorded without -triage and cannot be resumed with it — and vice
// versa — because the two runs disagree on which URLs get full sessions.
func (p *Pipeline) ensureTriageJournaled(j *journal.Journal) error {
	stored, err := j.TriagePlans()
	if err != nil {
		return fmt.Errorf("core: reading journaled triage plans: %w", err)
	}
	if p.Triage == nil {
		if len(stored) > 0 {
			return fmt.Errorf("core: journal holds a triage plan record but this run has -triage off; resume with the original triage flags")
		}
		return nil
	}
	if len(stored) == 0 {
		if len(j.CompletedURLs()) > 0 {
			return fmt.Errorf("core: journal holds sessions but no triage plan record; it was recorded without -triage and cannot be resumed with it")
		}
		enc, err := p.Triage.Encode()
		if err != nil {
			return fmt.Errorf("core: encoding triage plan: %w", err)
		}
		if err := j.AppendTriage(enc); err != nil {
			return fmt.Errorf("core: journaling triage plan: %w", err)
		}
		return nil
	}
	for _, rec := range stored {
		if err := p.Triage.Verify(rec); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// cloakConfig is the journaled cloak configuration record: the corpus's
// cloak rate and the crawler's retry budget. Field order is fixed, so its
// JSON encoding is canonical and resume can compare records byte-for-byte.
type cloakConfig struct {
	Rate    float64 `json:"rate"`
	Retries int     `json:"retries"`
}

// cloakEnabled reports whether this run participates in cloaking at all —
// either the corpus cloaks or the crawler spends uncloaking retries.
func (o Options) cloakEnabled() bool {
	return o.CloakRate > 0 || o.CloakRetries > 0
}

// ensureCloakJournaled reconciles this run's cloak configuration with the
// journal's config record, mirroring ensureTriageJournaled: a fresh
// cloak-enabled journal gets the canonical config appended before any
// session; a resumed one must hold a byte-identical record. The per-session
// mutation schedules are pure functions of the config and the feed, so a
// config mismatch means the journaled sessions were produced by a different
// cloak universe and cannot be mixed with this run's.
func (p *Pipeline) ensureCloakJournaled(j *journal.Journal) error {
	stored, err := j.CloakRecords()
	if err != nil {
		return fmt.Errorf("core: reading journaled cloak config: %w", err)
	}
	if !p.Opts.cloakEnabled() {
		if len(stored) > 0 {
			return fmt.Errorf("core: journal holds a cloak config record but this run has cloaking off; resume with the original -cloak-rate/-cloak-retries")
		}
		return nil
	}
	enc, err := json.Marshal(cloakConfig{Rate: p.Opts.CloakRate, Retries: p.Opts.CloakRetries})
	if err != nil {
		return fmt.Errorf("core: encoding cloak config: %w", err)
	}
	if len(stored) == 0 {
		if len(j.CompletedURLs()) > 0 {
			return fmt.Errorf("core: journal holds sessions but no cloak config record; it was recorded without cloaking and cannot be resumed with it")
		}
		if err := j.AppendCloak(enc); err != nil {
			return fmt.Errorf("core: journaling cloak config: %w", err)
		}
		return nil
	}
	for _, rec := range stored {
		if !bytes.Equal(rec, enc) {
			return fmt.Errorf("core: journaled cloak config %s does not match this run's %s; resume with the original -cloak-rate/-cloak-retries", rec, enc)
		}
	}
	return nil
}

// CrawlJournal crawls up to sample feed URLs (0 = all), streaming every
// finished session into j the moment it completes instead of accumulating
// logs in memory — the run-level durability layer for a 43-day crawl. URLs
// the journal already holds are skipped, so reopening the journal of an
// interrupted run resumes it: only incomplete URLs are re-crawled, and
// because per-session seeds derive from feed indices, the resumed sessions
// are identical to the ones an uninterrupted run would have produced. Feed
// metadata is attached before journaling; a stats record is appended when
// the run completes. p.Stats reports THIS run only (merged totals come
// from the journal); p.Logs stays nil. Returns how many URLs were skipped
// as already complete.
func (p *Pipeline) CrawlJournal(j *journal.Journal, sample int) (skipped int, err error) {
	urls := p.Feed.URLs()
	// Guard the operator against resuming with a mismatched corpus: every
	// journaled URL must exist in this feed, or the checkpoint (and the
	// sessions behind it) belong to a different -sites/-seed.
	inFeed := make(map[string]bool, len(urls))
	for _, u := range urls {
		inFeed[u] = true
	}
	for u := range j.CompletedURLs() {
		if !inFeed[u] {
			return 0, fmt.Errorf("core: journal holds sessions for URLs not in this feed (e.g. %s); it was recorded with different -sites/-seed", u)
		}
	}
	if sample > 0 && sample < len(urls) {
		urls = urls[:sample]
	}
	for _, u := range urls {
		if j.Completed(u) {
			skipped++
		}
	}
	p.Monitor.AddPreCompleted(skipped)
	return skipped, p.crawlJournal(j, urls, func(_ int, u string) bool { return j.Completed(u) })
}

// CrawlJournalShard is the fleet-worker crawl: it crawls only the feed
// indices in [start, end), skipping URLs in done (the coordinator's
// already-journaled set) and URLs this shard journal itself holds (a
// resumed shard directory), streaming every finished session into j. The
// skip filter composes over the full feed exactly as CrawlJournal's does,
// so per-session seeds still derive from global feed indices and a shard's
// sessions are byte-identical to the same sessions in a single-process
// run. p.Stats reports this shard's crawl; a stats record is appended on
// completion so the coordinator's merge can account elapsed time and
// panics per shard.
func (p *Pipeline) CrawlJournalShard(j *journal.Journal, start, end int, done map[string]bool) error {
	urls := p.Feed.URLs()
	if start < 0 || end > len(urls) || start > end {
		return fmt.Errorf("core: shard range [%d,%d) outside feed of %d URLs", start, end, len(urls))
	}
	return p.crawlJournal(j, urls, func(idx int, u string) bool {
		return idx < start || idx >= end || done[u] || j.Completed(u)
	})
}

// crawlJournal is the body both journaled crawls share: reconcile the
// journal's triage and cloak records with this run, crawl urls minus those
// skip rejects, journal each finished session as it completes, and append
// the run's stats record.
func (p *Pipeline) crawlJournal(j *journal.Journal, urls []string, skip func(idx int, u string) bool) error {
	if err := p.ensureTriageJournaled(j); err != nil {
		return err
	}
	if err := p.ensureCloakJournaled(j); err != nil {
		return err
	}
	byURL := analysis.MetaIndex(p.Feed.Filter())
	cfg := p.farmConfig()
	cfg.Skip = skip
	cfg.Sink = func(_ int, lg *crawler.SessionLog) error {
		analysis.AttachMetaIndexed(lg, byURL)
		p.Triage.Stamp(lg)
		return j.AppendSession(lg)
	}
	// The sink touches only its own session (metadata attach) and the
	// journal, whose appends are internally serialized — and batched, under
	// the group-commit sync policy. Concurrent delivery keeps workers from
	// queueing on the farm's tally lock for every fsync.
	cfg.SinkConcurrent = true
	p.Logs = nil
	var err error
	p.Stats, err = farm.RunStream(cfg, urls)
	if err != nil {
		return fmt.Errorf("core: journaling crawl: %w", err)
	}
	//phishvet:ignore detertaint: Stats.Elapsed is per-run operational accounting — determinism pins compare session records, never stats timing
	if err := j.AppendStats(p.Stats); err != nil {
		return fmt.Errorf("core: journaling run stats: %w", err)
	}
	return nil
}

// CaptchaAnalysisOptions returns the configured verification options for
// analysis.Captchas.
func (p *Pipeline) CaptchaAnalysisOptions() analysis.CaptchaOptions {
	return analysis.CaptchaOptions{Exemplars: p.CaptchaExemplars}
}
