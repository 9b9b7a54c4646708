package triage

import (
	"testing"

	"repro/internal/phash"
	"repro/internal/raster"
	"repro/internal/visualphish"
)

// mkFP builds a healthy fingerprint with a uniform thumbnail so embedding
// distance between two mkFP results is 0 when their colors match.
func mkFP(content string, h phash.Hash, thumb raster.Color) *Fingerprint {
	emb := visualphish.Embedding{Thumb: make([]raster.Color, 256), PHash: h}
	for i := range emb.Thumb {
		emb.Thumb[i] = thumb
	}
	emb.Hist[thumb] = 1
	return &Fingerprint{ContentHash: content, PHash: h, Emb: emb, OK: true}
}

// flipBit returns h with bit n (0..255) inverted.
func flipBit(h phash.Hash, n int) phash.Hash {
	h[n/64] ^= 1 << uint(n%64)
	return h
}

func TestBandKey(t *testing.T) {
	var h phash.Hash
	h[0] = 0x0123456789ABCDEF
	h[1] = 0xFEDCBA9876543210
	tests := []struct {
		band int
		want uint16
	}{
		{0, 0xCDEF}, {1, 0x89AB}, {2, 0x4567}, {3, 0x0123},
		{4, 0x3210}, {7, 0xFEDC},
	}
	for _, tc := range tests {
		if got := bandKey(h, tc.band); got != tc.want {
			t.Errorf("bandKey(band %d) = %04x, want %04x", tc.band, got, tc.want)
		}
	}
}

func TestLookupExactContent(t *testing.T) {
	ix := NewIndex()
	id := ix.Add(mkFP("content-a", phash.Hash{1, 2, 3, 4}, raster.Blue))
	// Same content hash, arbitrarily different pHash: the exact-clone path
	// wins before any band lookup.
	q := mkFP("content-a", phash.Hash{0xFFFF, 0, 0, 0}, raster.Red)
	got, sim, ok := ix.Lookup(q)
	if !ok || got != id || sim != 1 {
		t.Fatalf("Lookup(same content) = (%d, %g, %v), want (%d, 1, true)", got, sim, ok, id)
	}
}

// TestLookupBandBoundaryFlips pins the LSH recall property at the band
// edges: flipping one bit — including the first and last bit of a 16-bit
// band — changes at most one band key, so the other 15 bands still collide
// and Lookup finds the campaign with near-1 similarity.
func TestLookupBandBoundaryFlips(t *testing.T) {
	base := phash.Hash{0x0123456789ABCDEF, 0xFEDCBA9876543210, 0xAAAA5555AAAA5555, 0x00FF00FF00FF00FF}
	ix := NewIndex()
	id := ix.Add(mkFP("", base, raster.Blue))
	for _, bit := range []int{0, 15, 16, 31, 63, 64, 79, 127, 128, 191, 192, 240, 255} {
		q := mkFP("", flipBit(base, bit), raster.Blue)
		got, sim, ok := ix.Lookup(q)
		if !ok || got != id {
			t.Errorf("bit %d flip: Lookup = (%d, %g, %v), want campaign %d found", bit, got, sim, ok, id)
			continue
		}
		// One bit of 256: the pHash term costs 0.5 * 1/16, the embedding's
		// own pHash component a sliver more.
		if sim < 0.95 {
			t.Errorf("bit %d flip: similarity %g, want >= 0.95", bit, sim)
		}
	}
}

func TestLookupTieBreaksTowardEarliestCampaign(t *testing.T) {
	h := phash.Hash{7, 7, 7, 7}
	ix := NewIndex()
	first := ix.Add(mkFP("content-1", h, raster.Green))
	ix.Add(mkFP("content-2", h, raster.Green))
	// The query matches both reps identically (different content hash, same
	// visuals).
	q := mkFP("content-3", h, raster.Green)
	got, sim, ok := ix.Lookup(q)
	if !ok || got != first {
		t.Fatalf("Lookup tie = (%d, %g, %v), want earliest campaign %d", got, sim, ok, first)
	}
	if sim != 1 {
		t.Fatalf("identical visuals similarity = %g, want 1", sim)
	}
}

func TestLookupMissesWhenNoBandCollides(t *testing.T) {
	ix := NewIndex()
	ix.Add(mkFP("", phash.Hash{0, 0, 0, 0}, raster.Blue))
	// All-ones differs from all-zeros in every bit of every band.
	q := mkFP("", phash.Hash{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, raster.Red)
	if _, _, ok := ix.Lookup(q); ok {
		t.Fatal("Lookup found a campaign despite zero band collisions")
	}
}

func TestSimilarityScale(t *testing.T) {
	a := mkFP("", phash.Hash{1, 2, 3, 4}, raster.Blue)
	if s := Similarity(a, a); s != 1 {
		t.Errorf("Similarity(a, a) = %g, want 1", s)
	}
	// Distance >= 32 bits saturates the pHash term.
	far := mkFP("", phash.Hash{^uint64(1), ^uint64(2), ^uint64(3), ^uint64(4)}, raster.Red)
	if s := Similarity(a, far); s >= DefaultCampaignThreshold {
		t.Errorf("Similarity(a, far) = %g, want < threshold %g", s, DefaultCampaignThreshold)
	}
	// Empty content hashes must not match the exact-clone path.
	b := mkFP("", phash.Hash{1, 2, 3, 4}, raster.Blue)
	a2 := *a
	a2.PHash = flipBit(a.PHash, 5)
	a2.Emb.PHash = a2.PHash
	if s := Similarity(&a2, b); s >= 1 {
		t.Errorf("Similarity with empty content hashes = %g, want < 1 (no exact-clone match)", s)
	}
}

// TestAssignGroupsCampaigns: walked in feed order, near-copies of a design
// join the campaign its first copy founded, while a distinct design that
// still collides in some bands founds its own.
func TestAssignGroupsCampaigns(t *testing.T) {
	kitA := phash.Hash{0x0123456789ABCDEF, 0xFEDCBA9876543210, 0xAAAA5555AAAA5555, 0x00FF00FF00FF00FF}
	kitB := kitA
	for bit := 0; bit < 96; bit += 8 { // 12 bits across bands 0-5
		kitB = flipBit(kitB, bit)
	}
	feed := []*Fingerprint{
		mkFP("", kitA, raster.Blue),
		mkFP("", flipBit(kitA, 7), raster.Blue),
		mkFP("", kitB, raster.Red),
		mkFP("", flipBit(kitB, 200), raster.Red),
		mkFP("", kitA, raster.Blue),
	}
	want := []struct {
		id         int
		attributed bool
	}{{0, false}, {0, true}, {1, false}, {1, true}, {0, true}}
	ix := NewIndex()
	for i, fp := range feed {
		id, sim, attributed := ix.Assign(fp, DefaultCampaignThreshold)
		if id != want[i].id || attributed != want[i].attributed {
			t.Errorf("entry %d: Assign = (%d, %g, %v), want campaign %d attributed=%v",
				i, id, sim, attributed, want[i].id, want[i].attributed)
		}
		if attributed != (sim >= DefaultCampaignThreshold) || !attributed && sim != 0 {
			t.Errorf("entry %d: similarity %g inconsistent with attributed=%v", i, sim, attributed)
		}
	}
	if ix.Len() != 2 {
		t.Errorf("index holds %d campaigns, want 2", ix.Len())
	}
}
