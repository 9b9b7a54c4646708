// Package phash implements perceptual hashing of raster images, used in two
// places mirroring the paper: the first-page fingerprint the campaign index
// (internal/triage) groups phishing sites by (Section 4.6, "using
// perceptual hashing, in a way similar to previous work") and the
// visual-CAPTCHA verification heuristic of Section 5.3.2
// (a detection is kept only if its pHash is within distance 20 of at least 3
// training exemplars).
//
// The hash is a 256-bit gradient (difference) hash: the image is downsampled
// to a 17x16 intensity grid and each bit records whether a cell is brighter
// than its right neighbour. Gradient hashes are robust to uniform
// brightness shifts and small noise while distinguishing different layouts.
package phash

import (
	"fmt"
	"math/bits"

	"repro/internal/raster"
)

// Bits is the number of bits in a Hash.
const Bits = 256

const gridW, gridH = 17, 16 // 16 comparisons per row x 16 rows = 256 bits

// Hash is a 256-bit perceptual hash.
type Hash [4]uint64

// String returns the hash as hex.
func (h Hash) String() string {
	return fmt.Sprintf("%016x%016x%016x%016x", h[0], h[1], h[2], h[3])
}

// intensity is raster.ColorIntensity for every byte value a pixel can hold,
// so the block sums index a table instead of bounds-checking each pixel.
var intensity = func() (t [256]int) {
	for c := range t {
		t[c] = raster.ColorIntensity(raster.Color(c))
	}
	return t
}()

// Compute returns the perceptual hash of img.
func Compute(img *raster.Image) Hash {
	// Downsample intensities to gridW x gridH by block averaging.
	var grid [gridH][gridW]int
	if img.W == 0 || img.H == 0 {
		return Hash{}
	}
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			x0, x1 := gx*img.W/gridW, (gx+1)*img.W/gridW
			y0, y1 := gy*img.H/gridH, (gy+1)*img.H/gridH
			if x1 <= x0 {
				x1 = x0 + 1
			}
			if y1 <= y0 {
				y1 = y0 + 1
			}
			x1, y1 = min(x1, img.W), min(y1, img.H)
			sum := 0
			for y := y0; y < y1; y++ {
				for _, c := range img.Pix[y*img.W+x0 : y*img.W+x1] {
					sum += intensity[c]
				}
			}
			grid[gy][gx] = sum / ((x1 - x0) * (y1 - y0))
		}
	}
	var h Hash
	// First 128 bits: horizontal gradients on the even rows (8 rows x 16
	// comparisons). Gradients capture layout edges.
	bit := 0
	for gy := 0; gy < gridH; gy += 2 {
		for gx := 0; gx < gridW-1; gx++ {
			if grid[gy][gx] > grid[gy][gx+1] {
				h[bit/64] |= 1 << uint(bit%64)
			}
			bit++
		}
	}
	// Last 128 bits: brightness versus the global mean (16 rows x 8 cells).
	// This distinguishes uniformly dark pages from uniformly light ones,
	// which gradients alone cannot.
	sum, n := 0, 0
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			sum += grid[gy][gx]
			n++
		}
	}
	mean := sum / n
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < 8; gx++ {
			if grid[gy][gx*2] > mean {
				h[bit/64] |= 1 << uint(bit%64)
			}
			bit++
		}
	}
	return h
}

// Distance returns the Hamming distance between two hashes (0..256).
func Distance(a, b Hash) int {
	d := 0
	for i := 0; i < 4; i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// DefaultSimilarityThreshold is the distance below which two pages are
// considered the same design; the paper uses 20 for CAPTCHA verification.
const DefaultSimilarityThreshold = 20

// Similar reports whether two hashes are within the default threshold.
func Similar(a, b Hash) bool {
	return Distance(a, b) <= DefaultSimilarityThreshold
}

// NearCount returns how many of the exemplars are within threshold of h,
// implementing the >= 3 exemplar rule for visual-CAPTCHA verification.
func NearCount(h Hash, exemplars []Hash, threshold int) int {
	n := 0
	for _, ex := range exemplars {
		if Distance(h, ex) <= threshold {
			n++
		}
	}
	return n
}
