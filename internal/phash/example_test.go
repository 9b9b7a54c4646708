package phash_test

import (
	"fmt"

	"repro/internal/phash"
	"repro/internal/raster"
)

func ExampleDistance() {
	a := raster.New(200, 150, raster.White)
	a.Fill(raster.R(0, 0, 200, 30), raster.Navy)
	b := a.Clone()
	b.DrawString("v2", 180, 140, raster.Gray) // trivial variation
	c := raster.New(200, 150, raster.Olive)   // different design

	fmt.Println(phash.Distance(phash.Compute(a), phash.Compute(b)) <= phash.DefaultSimilarityThreshold)
	fmt.Println(phash.Distance(phash.Compute(a), phash.Compute(c)) <= phash.DefaultSimilarityThreshold)
	// Output:
	// true
	// false
}
