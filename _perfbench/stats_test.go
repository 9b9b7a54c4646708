package main

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/farm"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (reportable %v), want 50 (true)", v, ok)
	}
	if v, _ := percentile(xs, 0.99); v != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", v)
	}
	if v, _ := percentile([]float64{7}, 0.5); v != 7 {
		t.Errorf("p50 of one sample = %v, want 7", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("p50 of no samples is reportable")
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // rank 990: 9 beyond
		{1000, 0.99, true}, // rank 990: 10 beyond
		{1100, 0.99, true},
		{19, 0.5, false}, // rank 10: 9 beyond
		{20, 0.5, true},  // rank 10: 10 beyond
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, tc.q); ok != tc.want {
			t.Errorf("n=%d q=%v: reportable %v, want %v", tc.n, tc.q, ok, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped at both ends", []interval{{50, 120}, {180, 260}}, 60},
		{"entirely outside", []interval{{0, 90}, {200, 300}}, 100},
		{"covering", []interval{{0, 300}}, 0},
		{"unsorted", []interval{{170, 180}, {110, 120}, {115, 125}}, 75},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"setup_s":                true,
		"crawler.session_ms_p99": true,
		"hostile-durable":        true,
		"":                       false,
		"fetch us":               false,
		"ocr/page":               false,
		"vision.detect%":         false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestFailedAccounting(t *testing.T) {
	outcomes := map[string]int{
		crawler.OutcomeCompleted: 60,
		crawler.OutcomeStuck:     20,
		farm.OutcomeGaveUp:       15,
		farm.OutcomeLost:         3,
		farm.OutcomePanic:        2,
	}
	if n := failedSessions(outcomes, 100, true); n != 20 {
		t.Errorf("failed sessions = %d, want 20 (gave-up + lost + panic)", n)
	}
	if n := failedSessions(outcomes, 100, false); n != 100 {
		t.Errorf("failed sessions of a run failing its check = %d, want every URL", n)
	}
	if s := failedShare(failedSessions(outcomes, 100, true), 100); s != 0.2 {
		t.Errorf("failed share = %v, want 0.2", s)
	}
	if s := failedShare(failedSessions(outcomes, 100, false), 100); s != 1 {
		t.Errorf("failed share of a run failing a check = %v, want 1", s)
	}
	if s := failedShare(0, 0); s != 0 {
		t.Errorf("failed share of nothing = %v", s)
	}
}
