package raster

import "sync"

// Integral is a summed-area table (integral image) over a rectangular
// region of an Image, turning the per-window statistics the vision layer
// queries repeatedly — non-background coverage, ink coverage, and light
// coverage — into O(1) lookups per window.
//
// An Integral can cover the whole image (NewIntegral) or just one window
// of it (NewIntegralRegion). The detector builds one Integral per proposal
// region and shares it across proposal tightening (binary-searched on
// NonWhiteCount), the grid/border scores (one query per row, column, or
// strip), and the checkbox search, which OutlinedSquareScore evaluates as
// index arithmetic straight on the prefix-sum grid rather than as queries.
// Screenshots are mostly background, so region tables touch far fewer
// pixels than a whole-page table would.
//
// Only the three statistics that are queried many times per window get
// prefix-sum lanes; one-shot whole-window statistics (the color histogram
// and the transition counts) are served by Stats, a single streaming pass
// over the region's pixels, which is cheaper than maintaining a lane per
// palette color.
//
// Storage is a single (W+1) x (H+1) x 3 prefix-sum grid, interleaved by
// lane so the build is one streaming pass. Tables are recycled through a
// sync.Pool: call Release when done with an Integral to make its buffer
// available for reuse and keep steady-state detection allocation-free.
type Integral struct {
	// Region is the pixel rectangle the table covers (clipped to the
	// image). Queries are clipped to it.
	Region Rect

	im   *Image
	data []int32
}

// Lane positions inside the interleaved prefix-sum grid.
const (
	laneNonWhite = 0
	laneInk      = 1
	laneLight    = 2
	intLanes     = 3
)

var integralPool = sync.Pool{New: func() any { return new(Integral) }}

// NewIntegral builds the summed-area table for the whole image.
func NewIntegral(im *Image) *Integral {
	return NewIntegralRegion(im, R(0, 0, im.W, im.H))
}

// NewIntegralRegion builds a summed-area table covering only r (clipped to
// the image), in one O(r.Area()) pass. The table comes from a pool; pass it
// to Release when done to recycle its buffer.
func NewIntegralRegion(im *Image, r Rect) *Integral {
	r = r.Clip(im.W, im.H)
	in := integralPool.Get().(*Integral)
	in.Region = r
	in.im = im
	stride := (r.W + 1) * intLanes
	n := stride * (r.H + 1)
	if cap(in.data) < n {
		in.data = make([]int32, n)
	} else {
		// The build pass writes every interior cell but relies on the top
		// row and left column staying zero; clear just those on reuse.
		in.data = in.data[:n]
		for i := 0; i < stride; i++ {
			in.data[i] = 0
		}
		for y := 1; y <= r.H; y++ {
			base := y * stride
			in.data[base] = 0
			in.data[base+1] = 0
			in.data[base+2] = 0
		}
	}
	if r.Empty() {
		return in
	}
	d := in.data
	for iy := 1; iy <= r.H; iy++ {
		y := r.Y + iy - 1
		row := im.Pix[y*im.W+r.X : y*im.W+r.X+r.W]
		var nw, ink, light int32
		rowBase := iy * stride
		prevBase := rowBase - stride
		for x, px := range row {
			if px < NumColors {
				iv := intensity[px]
				if px != White {
					nw++
				}
				if iv < 128 {
					ink++
				}
				if iv >= 200 {
					light++
				}
			} else {
				light++ // out-of-palette reads as blank (intensity 255)
			}
			o := rowBase + (x+1)*intLanes
			p := prevBase + (x+1)*intLanes
			d[o] = d[p] + nw
			d[o+1] = d[p+1] + ink
			d[o+2] = d[p+2] + light
		}
	}
	return in
}

// Release returns the table's buffer to the pool. The Integral must not be
// used afterwards. Calling Release is optional — an unreleased table is
// simply collected by the GC.
func (in *Integral) Release() {
	in.im = nil
	integralPool.Put(in)
}

// sumLane evaluates one lane over r, which must already be clipped to the
// covered region.
func (in *Integral) sumLane(lane int, r Rect) int {
	s := (in.Region.W + 1) * intLanes
	x0, y0 := r.X-in.Region.X, r.Y-in.Region.Y
	x1, y1 := x0+r.W, y0+r.H
	d := in.data
	return int(d[y1*s+x1*intLanes+lane] - d[y0*s+x1*intLanes+lane] -
		d[y1*s+x0*intLanes+lane] + d[y0*s+x0*intLanes+lane])
}

// NonWhiteCount returns the number of non-background pixels inside r.
func (in *Integral) NonWhiteCount(r Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	return in.sumLane(laneNonWhite, r)
}

// InkCount returns the number of dark pixels (Intensity < 128) inside r —
// the OCR "ink" rule.
func (in *Integral) InkCount(r Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	return in.sumLane(laneInk, r)
}

// LightCount returns the number of light pixels (Intensity >= 200) inside
// r, the white background included.
func (in *Integral) LightCount(r Rect) int {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	return in.sumLane(laneLight, r)
}

// OutlinedSquareScore returns the best outline share × interior light share
// over squares of sizes 8, 10, ..., 16 placed at least 2 pixels inside r,
// ending left of r's left third and more than 2 pixels above its bottom.
// The outline share is the non-white count of the square's four one-pixel
// edge strips (corners counted twice) over 4·size; the light share is the
// light count of the square inset by 2 pixels over the inset's area. The
// detector uses it as its "I'm not a robot" checkbox feature. r is clipped
// to the covered region first.
//
// Every candidate lies inside r, so the strip and inset counts are read
// straight off the prefix-sum grid, without the per-query clipping of
// NonWhiteCount and LightCount. They are the same integers, combined by the
// same float expression, so the score is bit-identical to that query loop.
func (in *Integral) OutlinedSquareScore(r Rect) float64 {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return 0
	}
	s := (in.Region.W + 1) * intLanes
	d := in.data
	x0, y0 := r.X-in.Region.X, r.Y-in.Region.Y
	best := 0.0
	for size := 8; size <= 16; size += 2 {
		xa, xb := x0+2, x0+r.W/3-size // candidate left edges [xa, xb)
		if xb <= xa {
			continue
		}
		inner := size - 4
		n := float64(inner * inner)
		per := float64(4 * size)
		w := size * intLanes
		m := (xb - xa) * intLanes
		// lane returns one grid row's prefix sums at the given offset from
		// each candidate's left edge, as a slice the candidate loop walks
		// in step: every read in that loop is then provably in bounds.
		lane := func(row, off int) []int32 { return d[row*s+xa*intLanes+off:][:m] }
		insetL, insetR := 2*intLanes+laneLight, w-2*intLanes+laneLight
		for y := y0 + 2; y+size < y0+r.H-2; y++ {
			t0, t1, tm, tw := lane(y, 0), lane(y, intLanes), lane(y, w-intLanes), lane(y, w)
			u0, uw := lane(y+1, 0), lane(y+1, w)
			v0, vw := lane(y+size-1, 0), lane(y+size-1, w)
			b0, b1, bm, bw := lane(y+size, 0), lane(y+size, intLanes), lane(y+size, w-intLanes), lane(y+size, w)
			i0, i1 := lane(y+2, insetL), lane(y+2, insetR)
			j0, j1 := lane(y+size-2, insetL), lane(y+size-2, insetR)
			for c := 0; c < m; c += intLanes {
				hit := uw[c] - tw[c] - u0[c] + t0[c] + // top row
					bw[c] - vw[c] - b0[c] + v0[c] + // bottom row
					b1[c] - t1[c] - b0[c] + t0[c] + // left column
					bw[c] - tw[c] - bm[c] + tm[c] // right column
				light := j1[c] - i1[c] - j0[c] + i0[c]
				edge := float64(hit) / per
				if v := edge * float64(light) / n; v > best {
					best = v
				}
			}
		}
	}
	return best
}

// Stats scans r directly (one O(r.Area()) pass over the source image) and
// returns its per-color histogram and the counts of horizontally and
// vertically adjacent pixel pairs inside r whose colors differ. These are
// whole-window statistics computed once per feature vector, so a streaming
// scan beats carrying a prefix-sum lane per palette color.
func (in *Integral) Stats(r Rect) (hist [NumColors]int, hTrans, vTrans int) {
	r = r.Intersect(in.Region)
	if r.Empty() {
		return
	}
	im := in.im
	for y := r.Y; y < r.Y+r.H; y++ {
		row := im.Pix[y*im.W+r.X : y*im.W+r.X+r.W]
		var prevRow []Color
		if y > r.Y {
			prevRow = im.Pix[(y-1)*im.W+r.X : (y-1)*im.W+r.X+r.W]
		}
		for x, px := range row {
			if px < NumColors {
				hist[px]++
			}
			if x > 0 && px != row[x-1] {
				hTrans++
			}
			if prevRow != nil && px != prevRow[x] {
				vTrans++
			}
		}
	}
	return
}
