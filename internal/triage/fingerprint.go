package triage

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/dom"
	"repro/internal/phash"
	"repro/internal/visualphish"
)

// Fingerprint is what one probe fetch learns about a URL: the visual and
// structural identity the campaign index clusters on, plus enough page
// metadata to synthesize the fast-path session log without a second fetch.
type Fingerprint struct {
	URL     string `json:"url"`
	Host    string `json:"host"`
	Status  int    `json:"status"`
	Title   string `json:"title"`
	Text    string `json:"text"`
	DOMHash string `json:"domHash"`
	// ContentHash is the exact-clone identity: structure + title + text +
	// rendering hash. DOMHash alone is the transition-detection structural
	// hash, which different kits sharing a page template collide on; the
	// content hash only matches byte-identical deployments of one kit.
	ContentHash string                `json:"contentHash"`
	PHash       phash.Hash            `json:"pHash"`
	Emb         visualphish.Embedding `json:"emb"`
	// OK marks a healthy, indexable landing page. Dead/timeout/5xx/takedown
	// probes are not indexable: a full session must classify the failure
	// (preserving the failure taxonomy and recall under chaos), and a
	// hosting provider's shared suspension page must never found a
	// "campaign" that swallows every other suspended site.
	OK bool `json:"ok"`
	// Err is the failure-taxonomy class when !OK.
	Err string `json:"err,omitempty"`
}

// probe fetches url once and fingerprints the landing page. One Navigate,
// one render — no interaction budget, no retries. The browser comes from
// the same factory (and therefore the same chaos-wrapped transport) the
// crawler uses, so a fault-injected feed faults probes exactly as it would
// fault a session's first fetch.
func probe(newBrowser func() *browser.Browser, rawURL string) Fingerprint {
	fp := Fingerprint{URL: rawURL}
	b := newBrowser()
	page, err := b.Navigate(rawURL)
	if err != nil {
		fp.Err = crawler.ClassifyError(err)
		return fp
	}
	fp.Host = page.Host()
	fp.Status = page.Status
	fp.Title = dom.Title(page.Doc)
	fp.Text = page.Doc.InnerText()
	if fp.Err = landingFailure(fp.Status, fp.Title, fp.Text); fp.Err != "" {
		return fp
	}
	shot := page.Screenshot()
	fp.DOMHash = page.DOMHash()
	fp.PHash = phash.Compute(shot)
	fp.Emb = visualphish.EmbedCropped(shot)
	fp.ContentHash = contentHash(fp.DOMHash, fp.Title, fp.Text, fp.PHash)
	fp.OK = true
	return fp
}

// landingFailure is the health rule for a landing page: a 5xx status or a
// hosting provider's takedown notice is not a campaign page. It returns the
// failure-taxonomy class, or "" for a healthy page. The probe and
// LogFingerprint share it, so a page founds a campaign in a triage plan
// exactly when it would in a clustering of finished sessions.
func landingFailure(status int, title, text string) string {
	switch {
	case status >= http.StatusInternalServerError:
		return crawler.OutcomeServerError
	case crawler.IsTakedownText(title, text):
		return crawler.OutcomeTakedown
	}
	return ""
}

// LogFingerprint rebuilds the campaign identity (content hash, pHash,
// embedding) the probe would have fingerprinted for a finished session's
// landing page, from the session's first page and first-page embedding. It
// returns nil when the session has no first page (it failed before one
// loaded) or that page fails the probe's health rule: such a session founds
// no campaign.
func LogFingerprint(lg *crawler.SessionLog) *Fingerprint {
	if len(lg.Pages) == 0 {
		return nil
	}
	pg := &lg.Pages[0]
	if landingFailure(pg.Status, pg.Title, pg.Text) != "" {
		return nil
	}
	return &Fingerprint{
		URL:         lg.SeedURL,
		ContentHash: contentHash(pg.DOMHash, pg.Title, pg.Text, pg.PHash),
		PHash:       pg.PHash,
		Emb:         lg.FirstPageEmbedding,
		OK:          true,
	}
}

// contentHash folds a page's structural hash, visible text, and rendering
// hash into one identity: equal only for byte-identical kit deployments.
func contentHash(domHash, title, text string, ph phash.Hash) string {
	h := fnv.New64a()
	for _, s := range []string{domHash, title, text, ph.String()} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// probeAll fingerprints every URL whose eligible flag is set, fanning out
// over workers goroutines. Results land by index, and each probe is a pure
// function of its URL (every process probes each URL exactly once, so even
// the chaos injector's stateful flaky-connection budget is consumed
// identically everywhere) — the output is independent of scheduling.
func probeAll(urls []string, eligible []bool, workers int, newBrowser func() *browser.Browser) []*Fingerprint {
	fps := make([]*Fingerprint, len(urls))
	if workers <= 0 {
		workers = 1
	}
	idxCh := make(chan int, len(urls))
	for i := range urls {
		if eligible[i] {
			idxCh <- i
		}
	}
	close(idxCh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				fp := probe(newBrowser, urls[i])
				fps[i] = &fp
			}
		}()
	}
	wg.Wait()
	return fps
}
