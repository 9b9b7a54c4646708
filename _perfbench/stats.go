package main

import (
	"math"
	"regexp"
	"sort"

	"repro/internal/crawler"
	"repro/internal/farm"
)

// minBeyond is how many samples must lie strictly above a percentile's
// rank before that percentile is reported: a p99 over fewer than 1,000
// samples would be decided by fewer than ten observations.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it is reportable: at least minBeyond samples rank above it. xs
// is sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n-rank >= minBeyond
}

// median is the middle value of xs (mean of the two middle values for an
// even count), with no sample-count rule: it summarizes a run's handful of
// crawls, not a latency distribution. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// interval is one closed-open stretch of a monotonic clock, in
// nanoseconds since the run started.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child. Children are
// clipped to the parent first and overlapping children count once, so two
// concurrent fetches of one session never subtract the same nanosecond
// twice.
func selfTime(parent interval, children []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return total - covered
}

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether name may be used as a metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// failedSessions counts the sessions of one crawl that did not reach a
// measured outcome: those the farm gave up on, lost, or recovered from a
// panic. When the run failed an output check, every URL counts as failed,
// since none of its sessions can be trusted.
func failedSessions(outcomes map[string]int, urls int, checkOK bool) int {
	if !checkOK {
		return urls
	}
	return outcomes[farm.OutcomeGaveUp] + outcomes[farm.OutcomeLost] + outcomes[farm.OutcomePanic]
}

// failedShare is failed sessions over attempted feed URLs.
func failedShare(failed, urls int) float64 {
	if urls == 0 {
		return 0
	}
	return float64(failed) / float64(urls)
}

// fastPathed reports whether a session was resolved by the triage fast
// path instead of a browser session.
func fastPathed(lg *crawler.SessionLog) bool {
	return lg.Outcome == crawler.OutcomeAttributed || lg.Outcome == crawler.OutcomeTriagedOut
}
