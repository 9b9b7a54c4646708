package main

import (
	"net/url"
	"strings"

	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/dom"
	"repro/internal/layout"
	"repro/internal/ocr"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/textclass"
	"repro/internal/vision"
)

// ocrSearchDist is the crawler's OCR label search distance in pixels.
const ocrSearchDist = 150

// replay runs every distinct captured document through the browser's
// sublayers one at a time, each call under its own span that counts for
// every fetch of that document: dom.Parse, layout.Compute,
// render.Render, OCR over the page's input boxes, and vision detection on
// the screenshot. Then every logged field description goes through the
// field classifier. It runs after the crawl it replays, so it costs the
// crawl nothing.
func replay(rec *recorder, c *capture, det *vision.Detector, clf *textclass.Model, logs []*crawler.SessionLog) {
	eng := ocr.New()
	images := map[string]*raster.Image{}
	for _, d := range c.docs {
		parent := rec.newID()
		timed := func(name string, fn func()) {
			start := rec.now()
			fn()
			rec.add(span{ID: rec.newID(), Parent: parent, Name: name, Start: start, End: rec.now(), Feed: d.feed, Fetches: d.fetches})
		}
		rec.timedID(parent, "replay.doc", 0, d.feed, 0, func() {
			var doc *dom.Node
			timed("dom.parse", func() { doc = dom.Parse(d.body) })
			timed("layout.compute", func() { layout.Compute(doc, browser.ViewportWidth).Release() })
			resolve := c.resolver(d.url, doc, images)
			var pg *render.Page
			timed("render.page", func() { pg = render.Render(doc, browser.ViewportWidth, resolve) })
			timed("ocr.page", func() {
				mask := ocr.NewMask(pg.Screenshot)
				for _, box := range inputBoxes(doc, pg.Layout) {
					eng.TextNearMask(mask, box, ocrSearchDist)
				}
				mask.Release()
			})
			timed("vision.detect", func() { det.Detect(pg.Screenshot) })
			pg.Release()
		})
	}
	for _, lg := range logs {
		for _, pl := range lg.Pages {
			for _, f := range pl.Fields {
				if f.Description != "" {
					rec.timed("textclass.predict", 0, lg.FeedIndex, 0, func() { clf.Predict(f.Description) })
				}
			}
		}
	}
}

// inputBoxes returns the boxes of the fields the crawler fills: visible
// input and select elements that take typed or chosen values.
func inputBoxes(doc *dom.Node, lay *layout.Result) []raster.Rect {
	var out []raster.Rect
	for _, n := range doc.ElementsByTag("input", "select") {
		switch strings.ToLower(n.AttrOr("type", "")) {
		case "hidden", "submit", "image", "button", "checkbox", "radio":
			continue
		}
		if !lay.Visible(n) {
			continue
		}
		if box, ok := lay.Box(n); ok {
			out = append(out, box)
		}
	}
	return out
}

// resolver decodes, before rendering starts, every image the document
// references — as the browser prefetches them — and returns the lookup
// render.Render calls. images caches decoded images across documents by
// absolute URL (or data URI); nil marks one that failed to load.
func (c *capture) resolver(pageURL string, doc *dom.Node, images map[string]*raster.Image) render.ImageResolver {
	base, err := url.Parse(pageURL)
	keys := map[string]string{} // src attribute -> images key
	load := func(src string) {
		if src == "" || err != nil || keys[src] != "" {
			return
		}
		data := strings.HasPrefix(src, "data:")
		key := src
		if !data {
			ref, err := url.Parse(src)
			if err != nil {
				return
			}
			key = base.ResolveReference(ref).String()
		}
		keys[src] = key
		if _, done := images[key]; done {
			return
		}
		var img *raster.Image
		if data {
			img, _ = raster.DecodeDataURI(src)
		} else if body, ok := c.images[key]; ok {
			img, _ = raster.Decode(body)
		}
		images[key] = img
	}
	for _, n := range doc.ElementsByTag("img") {
		load(n.AttrOr("src", ""))
	}
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		if style, ok := n.Attr("style"); ok {
			if i := strings.Index(style, "url("); i >= 0 {
				rest := style[i+4:]
				if j := strings.IndexByte(rest, ')'); j >= 0 {
					load(strings.Trim(strings.TrimSpace(rest[:j]), `'"`))
				}
			}
		}
		return true
	})
	return func(src string) *raster.Image { return images[keys[src]] }
}
