package vision

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/captcha"
	"repro/internal/raster"
)

// buildPage draws a simple page with a button and a CAPTCHA at known boxes.
func buildPage(rng *rand.Rand, kind captcha.Kind) Example {
	img := raster.New(400, 300, raster.White)
	img.DrawString("PLEASE VERIFY YOUR ACCOUNT", 20, 12, raster.Black)
	// Input box.
	img.Outline(raster.R(20, 40, 180, 14), raster.Gray)

	cimg, _ := captcha.Render(kind, rng)
	cx, cy := 20, 80
	img.Blit(cimg, cx, cy)
	cbox := raster.R(cx, cy, cimg.W, cimg.H)

	bbox := raster.R(20, 220, 70, 18)
	img.Fill(bbox, raster.LightGray)
	img.Outline(bbox, raster.Gray)
	img.DrawString("Submit", bbox.X+6, bbox.Y+5, raster.Black)

	return Example{Image: img, Annotations: []Annotation{
		{Class: kind.String(), Box: cbox},
		{Class: ClassButton, Box: bbox},
	}}
}

func trainedDetector(t testing.TB) *Detector {
	rng := rand.New(rand.NewSource(42))
	var examples []Example
	for i := 0; i < 120; i++ {
		kind := captcha.AllKinds()[i%int(captcha.NumKinds)]
		examples = append(examples, buildPage(rng, kind))
	}
	d, err := Train(examples, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainRequiresData(t *testing.T) {
	if _, err := Train(nil, 1); err == nil {
		t.Error("empty training should fail")
	}
}

func TestProposalsFindWidgets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ex := buildPage(rng, captcha.Text1)
	props := Proposals(ex.Image)
	if len(props) == 0 {
		t.Fatal("no proposals on a page with widgets")
	}
	// Each annotation must be covered by some proposal with decent IoU.
	for _, an := range ex.Annotations {
		best := 0.0
		for _, p := range props {
			if iou := p.IoU(an.Box); iou > best {
				best = iou
			}
		}
		if best < MatchIoU {
			t.Errorf("no proposal covers %s (best IoU %.2f)", an.Class, best)
		}
	}
}

func TestProposalsEmptyImage(t *testing.T) {
	if got := Proposals(raster.New(0, 0, raster.White)); got != nil {
		t.Error("empty image should yield no proposals")
	}
	blank := raster.New(200, 200, raster.White)
	if got := Proposals(blank); len(got) != 0 {
		t.Errorf("blank page yielded %d proposals", len(got))
	}
}

func TestDetectButtonAndCaptcha(t *testing.T) {
	d := trainedDetector(t)
	rng := rand.New(rand.NewSource(99))
	ex := buildPage(rng, captcha.Text2)
	dets := d.Detect(ex.Image)
	foundButton, foundCaptcha := false, false
	for _, det := range dets {
		for _, an := range ex.Annotations {
			if det.Box.IoU(an.Box) >= MatchIoU && det.Class == an.Class {
				if an.Class == ClassButton {
					foundButton = true
				} else {
					foundCaptcha = true
				}
			}
		}
	}
	if !foundButton {
		t.Errorf("button not detected; detections: %+v", dets)
	}
	if !foundCaptcha {
		t.Errorf("captcha not detected; detections: %+v", dets)
	}
}

func TestDetectClassFiltering(t *testing.T) {
	d := trainedDetector(t)
	rng := rand.New(rand.NewSource(5))
	ex := buildPage(rng, captcha.Text1)
	for _, det := range d.DetectClass(ex.Image, ClassButton) {
		if det.Class != ClassButton {
			t.Errorf("DetectClass leaked class %s", det.Class)
		}
	}
}

func TestNonMaxSuppression(t *testing.T) {
	dets := []Detection{
		{Class: "button", Score: 0.9, Box: raster.R(0, 0, 50, 20)},
		{Class: "button", Score: 0.8, Box: raster.R(2, 2, 50, 20)},   // overlaps first
		{Class: "button", Score: 0.7, Box: raster.R(200, 0, 50, 20)}, // distinct
		{Class: "logo", Score: 0.6, Box: raster.R(1, 1, 50, 20)},     // other class
	}
	kept := NonMaxSuppression(dets, 0.3)
	if len(kept) != 3 {
		t.Fatalf("kept %d, want 3: %+v", len(kept), kept)
	}
	if kept[0].Score != 0.9 {
		t.Error("NMS must keep highest score first")
	}
}

func TestEvaluatePerfectOnTraining(t *testing.T) {
	// On clean, well-separated synthetic pages the detector should achieve
	// high AP — the Table 5 regime (77-99 AP).
	d := trainedDetector(t)
	rng := rand.New(rand.NewSource(1234))
	var test []Example
	for i := 0; i < 40; i++ {
		test = append(test, buildPage(rng, captcha.AllKinds()[i%8]))
	}
	res := Evaluate(d, test)
	if res.MeanAP < 0.6 {
		t.Errorf("mean AP = %.2f, want >= 0.6; per-class: %v", res.MeanAP, res.APPerClass)
	}
	if res.APPerClass[ClassButton] < 0.7 {
		t.Errorf("button AP = %.2f", res.APPerClass[ClassButton])
	}
	if res.Precision() <= 0 || res.Recall() <= 0 {
		t.Error("aggregate precision/recall should be positive")
	}
}

func TestFeaturesDimAndStability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ex := buildPage(rng, captcha.Text3)
	f := Features(ex.Image, ex.Annotations[0].Box)
	if len(f) != FeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(f), FeatureDim)
	}
	f2 := Features(ex.Image, ex.Annotations[0].Box)
	for i := range f {
		if f[i] != f2[i] {
			t.Fatal("features not deterministic")
		}
	}
	// Empty region yields the zero vector without panicking.
	zero := Features(ex.Image, raster.R(500, 500, 10, 10))
	for _, v := range zero {
		if v != 0 {
			t.Error("out-of-bounds region should yield zero features")
		}
	}
}

func TestDetectorMarshalRoundTrip(t *testing.T) {
	d := trainedDetector(t)
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := UnmarshalDetector(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	ex := buildPage(rng, captcha.Visual2)
	a := d.Detect(ex.Image)
	b := d2.Detect(ex.Image)
	if len(a) != len(b) {
		t.Fatalf("round trip changed detections: %d vs %d", len(a), len(b))
	}
	if _, err := UnmarshalDetector([]byte("junk")); err == nil {
		t.Error("junk should fail to unmarshal")
	}
}

func TestScoreRegionBackgroundOnBlank(t *testing.T) {
	d := trainedDetector(t)
	blank := raster.New(300, 200, raster.White)
	blank.DrawString("JUST SOME RUNNING TEXT HERE", 10, 50, raster.Black)
	dets := d.Detect(blank)
	for _, det := range dets {
		if det.Class == ClassButton && det.Score > 0.9 {
			t.Errorf("plain text confidently detected as button: %+v", det)
		}
	}
}

func BenchmarkDetect(b *testing.B) {
	d := trainedDetector(b)
	rng := rand.New(rand.NewSource(3))
	ex := buildPage(rng, captcha.Text4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(ex.Image)
	}
}

// checkboxScoreRef is the checkbox search as five clipped Integral queries
// per candidate square: the reference checkboxScore must match bit for bit.
func checkboxScoreRef(in *raster.Integral, r raster.Rect) float64 {
	if r.W < 30 || r.H < 14 {
		return 0
	}
	best := 0.0
	for size := 8; size <= 16; size += 2 {
		inner := size - 4
		n := inner * inner
		for y := r.Y + 2; y+size < r.Y+r.H-2; y++ {
			for x := r.X + 2; x+size < r.X+r.W/3; x++ {
				sq := raster.R(x, y, size, size)
				// Outline must be non-white, interior light.
				edge := borderScore(in, sq)
				interiorLight := in.LightCount(raster.R(sq.X+2, sq.Y+2, inner, inner))
				s := edge * float64(interiorLight) / float64(n)
				if s > best {
					best = s
				}
			}
		}
	}
	return best
}

// checkCheckbox compares checkboxScore with the reference on window r of in,
// clipped to the table's region as featuresInto clips it.
func checkCheckbox(t *testing.T, in *raster.Integral, r raster.Rect) {
	t.Helper()
	r = r.Intersect(in.Region)
	got, want := checkboxScore(in, r), checkboxScoreRef(in, r)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("checkboxScore(%v) over %v = %v, reference %v", r, in.Region, got, want)
	}
}

func TestCheckboxScoreMatchesReferenceOnPages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	windows := 0
	for i := 0; i < 3*int(captcha.NumKinds); i++ {
		ex := buildPage(rng, captcha.AllKinds()[i%int(captcha.NumKinds)])
		for _, p := range proposalsIn(ex.Image) {
			checkCheckbox(t, p.in, p.box)
			windows++
			p.in.Release()
		}
		for _, an := range ex.Annotations {
			in := raster.NewIntegralRegion(ex.Image, an.Box)
			checkCheckbox(t, in, an.Box)
			in.Release()
		}
	}
	if windows == 0 {
		t.Fatal("no proposals on the generated pages")
	}
}

// plantedImage is a random page with outlined light squares of sizes 8-16
// planted in it, so the search meets both near-perfect and partial
// candidates.
func plantedImage(rng *rand.Rand, w, h int) *raster.Image {
	img := raster.New(w, h, raster.White)
	for i := range img.Pix {
		if rng.Intn(4) == 0 {
			img.Pix[i] = raster.Color(rng.Intn(int(raster.NumColors)))
		}
	}
	light := []raster.Color{raster.White, raster.LightGray, raster.Yellow, raster.Pink}
	for k := rng.Intn(6); k > 0; k-- {
		size := 8 + rng.Intn(9)
		sq := raster.R(rng.Intn(w), rng.Intn(h), size, size)
		img.Fill(sq, light[rng.Intn(len(light))])
		img.Outline(sq, raster.Color(1+rng.Intn(int(raster.NumColors)-1)))
	}
	return img
}

func TestCheckboxScoreMatchesReferenceOnRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		w, h := 40+rng.Intn(160), 20+rng.Intn(100)
		img := plantedImage(rng, w, h)
		// A table over a non-origin region, and windows offset inside it.
		reg := raster.R(1+rng.Intn(8), 1+rng.Intn(8), w-rng.Intn(20), h-rng.Intn(16))
		in := raster.NewIntegralRegion(img, reg)
		for q := 0; q < 8; q++ {
			r := raster.R(in.Region.X+rng.Intn(10), in.Region.Y+rng.Intn(6),
				30+rng.Intn(in.Region.W), 14+rng.Intn(in.Region.H))
			checkCheckbox(t, in, r)
		}
		in.Release()
	}
}

func FuzzCheckboxScore(f *testing.F) {
	f.Add([]byte{}, uint8(60), uint8(30), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 1, 3, 0, 2, 7}, uint8(90), uint8(40), uint8(3), uint8(2), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, pix []byte, w, h, rx, ry, wx, wy uint8) {
		img := raster.New(int(w%128)+1, int(h%64)+1, raster.White)
		// Repeat the input over the image with long white runs between,
		// so small inputs still draw outlines on a light background.
		for i := range img.Pix {
			if len(pix) > 0 && i%(len(pix)+3) < len(pix) {
				img.Pix[i] = raster.Color(pix[i%(len(pix)+3)] % uint8(raster.NumColors+1))
			}
		}
		in := raster.NewIntegralRegion(img, raster.R(int(rx%16), int(ry%16), img.W, img.H))
		defer in.Release()
		checkCheckbox(t, in, raster.R(in.Region.X+int(wx%8), in.Region.Y+int(wy%8), img.W, img.H))
	})
}

// BenchmarkCheckboxScore runs the checkbox search over one text-dense
// 420x320 window, the shape of a large proposal on a form page.
func BenchmarkCheckboxScore(b *testing.B) {
	img := raster.New(420, 320, raster.White)
	for y := 4; y+raster.GlyphH < img.H; y += raster.GlyphH + 4 {
		img.DrawString("SIGN IN TO CONTINUE 0123 VERIFY YOUR ACCOUNT", 4, y, raster.Black)
	}
	r := raster.R(0, 0, img.W, img.H)
	in := raster.NewIntegralRegion(img, r)
	defer in.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = checkboxScore(in, r)
	}
}

var benchScore float64
