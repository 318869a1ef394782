package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"isomap/internal/field"
	"isomap/internal/geom"
)

func codecLevels() field.Levels { return field.Levels{Low: 6, High: 12, Step: 2} }

func newTestCodec(t *testing.T, bpp int) *Codec {
	t.Helper()
	c, err := NewCodec(codecLevels(), geom.Rect(0, 0, 50, 50), bpp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(codecLevels(), geom.Rect(0, 0, 50, 50), 3); err == nil {
		t.Error("want error for bytesPerParam 3")
	}
	if _, err := NewCodec(field.Levels{}, geom.Rect(0, 0, 50, 50), 2); err == nil {
		t.Error("want error for empty levels")
	}
	if _, err := NewCodec(codecLevels(), geom.Polygon{}, 2); err == nil {
		t.Error("want error for empty bounds")
	}
}

func TestCodecSizes(t *testing.T) {
	if got := newTestCodec(t, 2).ReportSize(); got != 10 {
		t.Errorf("2-byte codec report = %d bytes, want 10 (the paper's format)", got)
	}
	if got := newTestCodec(t, 1).ReportSize(); got != 5 {
		t.Errorf("1-byte codec report = %d bytes, want 5", got)
	}
	// The wire constant matches the full-resolution codec.
	if newTestCodec(t, 2).ReportSize() != ReportBytes {
		t.Errorf("codec size disagrees with ReportBytes = %d", ReportBytes)
	}
}

func TestCodecRoundTripErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		bpp         int
		posTol      float64 // field units
		angleTolDeg float64
	}{
		{2, 50.0 / 65535 * 1.1, 0.2},
		{1, 50.0 / 255 * 1.1, 2.0},
	} {
		c := newTestCodec(t, tc.bpp)
		for trial := 0; trial < 500; trial++ {
			theta := rng.Float64() * 2 * math.Pi
			orig := Report{
				Level:      6 + 2*float64(rng.Intn(4)),
				LevelIndex: 0,
				Pos:        geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
				Grad:       geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)}.Scale(0.1 + rng.Float64()*5),
				Source:     7,
			}
			back, err := c.Decode(c.Encode(orig))
			if err != nil {
				t.Fatal(err)
			}
			if back.Level != orig.Level {
				t.Fatalf("bpp %d: level %v -> %v", tc.bpp, orig.Level, back.Level)
			}
			if d := back.Pos.DistTo(orig.Pos); d > tc.posTol*math.Sqrt2 {
				t.Fatalf("bpp %d: position error %v > %v", tc.bpp, d, tc.posTol*math.Sqrt2)
			}
			if ang := geom.Degrees(back.Grad.AngleBetween(orig.Grad)); ang > tc.angleTolDeg {
				t.Fatalf("bpp %d: gradient angle error %v deg", tc.bpp, ang)
			}
			if back.Source != -1 {
				t.Fatalf("source should not survive the wire: %d", back.Source)
			}
		}
	}
}

func TestCodecLevelSnapsToScheme(t *testing.T) {
	c := newTestCodec(t, 2)
	values := codecLevels().Values()
	for _, lv := range values {
		r := Report{Level: lv, Pos: geom.Point{X: 10, Y: 10}, Grad: geom.Vec{X: 1}}
		back, err := c.Decode(c.Encode(r))
		if err != nil {
			t.Fatal(err)
		}
		if back.Level != lv {
			t.Errorf("level %v decoded as %v", lv, back.Level)
		}
		if values[back.LevelIndex] != back.Level {
			t.Errorf("LevelIndex %d inconsistent with Level %v", back.LevelIndex, back.Level)
		}
	}
}

func TestCodecClampsOutOfRange(t *testing.T) {
	c := newTestCodec(t, 2)
	r := Report{Level: 99, Pos: geom.Point{X: -10, Y: 999}, Grad: geom.Vec{X: 5, Y: 0}}
	back, err := c.Decode(c.Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if back.Level != 12 {
		t.Errorf("out-of-range level clamps to 12, got %v", back.Level)
	}
	if back.Pos.X < 0 || back.Pos.X > 50 || back.Pos.Y < 0 || back.Pos.Y > 50 {
		t.Errorf("position %v outside bounds", back.Pos)
	}
}

func TestCodecBatch(t *testing.T) {
	c := newTestCodec(t, 2)
	reports := []Report{
		{Level: 6, Pos: geom.Point{X: 1, Y: 2}, Grad: geom.Vec{X: 1}},
		{Level: 8, Pos: geom.Point{X: 30, Y: 40}, Grad: geom.Vec{Y: -1}},
		{Level: 12, Pos: geom.Point{X: 49, Y: 49}, Grad: geom.Vec{X: -1, Y: 1}},
	}
	blob := c.EncodeAll(reports)
	if len(blob) != 30 {
		t.Fatalf("batch = %d bytes, want 30", len(blob))
	}
	back, err := c.DecodeAll(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("decoded %d reports", len(back))
	}
	for i := range back {
		if back[i].Level != reports[i].Level {
			t.Errorf("report %d level %v -> %v", i, reports[i].Level, back[i].Level)
		}
	}
	// Errors.
	if _, err := c.DecodeAll(blob[:7]); err == nil {
		t.Error("want error for ragged batch")
	}
	if _, err := c.Decode(blob[:4]); err == nil {
		t.Error("want error for short report")
	}
}

// FuzzCodecDecode feeds arbitrary bytes to both codec widths: Decode and
// DecodeAll must never panic, must reject exactly the wrongly sized
// inputs, and must yield reports inside the codec's ranges whose position
// codes re-encode to the same bytes. The fuzzed report, encoded and
// decoded, must come back within the quantization error.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false, 8.0, 10.0, 20.0, 1.0, 0.0)
	f.Add([]byte{255, 255, 255, 255, 255}, true, 99.0, -10.0, 999.0, 0.0, 0.0)
	f.Add([]byte{1, 2, 3}, false, math.NaN(), math.Inf(1), 25.0, 1e-12, -3.0)
	f.Fuzz(func(t *testing.T, data []byte, narrow bool, level, x, y, gx, gy float64) {
		bpp := 2
		if narrow {
			bpp = 1
		}
		c := newTestCodec(t, bpp)
		size := c.ReportSize()
		values := codecLevels().Values()
		checkRanges := func(r Report) {
			t.Helper()
			if r.LevelIndex < 0 || r.LevelIndex >= len(values) || values[r.LevelIndex] != r.Level {
				t.Fatalf("level %v index %d not in the scheme %v", r.Level, r.LevelIndex, values)
			}
			if !(r.Pos.X >= 0 && r.Pos.X <= 50 && r.Pos.Y >= 0 && r.Pos.Y <= 50) {
				t.Fatalf("position %v outside the bounds", r.Pos)
			}
			if !(math.Abs(r.Grad.X) <= 1 && math.Abs(r.Grad.Y) <= 1) {
				t.Fatalf("gradient %v outside [-1, 1]", r.Grad)
			}
			if r.Source != -1 {
				t.Fatalf("source %d survived the wire", r.Source)
			}
		}

		r, err := c.Decode(data)
		if (err == nil) != (len(data) == size) {
			t.Fatalf("Decode of %d bytes: err = %v, want an error iff the size is not %d", len(data), err, size)
		}
		if err == nil {
			checkRanges(r)
			if got := c.Encode(r); !bytes.Equal(got[bpp:3*bpp], data[bpp:3*bpp]) {
				t.Fatalf("position codes %v re-encode as %v", data[bpp:3*bpp], got[bpp:3*bpp])
			}
		}
		all, err := c.DecodeAll(data)
		if (err == nil) != (len(data)%size == 0) {
			t.Fatalf("DecodeAll of %d bytes: err = %v", len(data), err)
		}
		if err == nil {
			if len(all) != len(data)/size {
				t.Fatalf("DecodeAll: %d reports from %d bytes", len(all), len(data))
			}
			for i, r := range all {
				checkRanges(r)
				if one, _ := c.Decode(data[i*size : (i+1)*size]); one != r {
					t.Fatalf("DecodeAll report %d = %+v, Decode = %+v", i, r, one)
				}
			}
		}

		orig := Report{Level: level, Pos: geom.Point{X: x, Y: y}, Grad: geom.Vec{X: gx, Y: gy}}
		back, err := c.Decode(c.Encode(orig))
		if err != nil {
			t.Fatal(err)
		}
		checkRanges(back)
		for _, v := range []float64{level, x, y, gx, gy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		quantum := 1 / c.maxQuant
		clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
		if d := math.Abs(back.Pos.X - clamp(x, 0, 50)); d > 50*quantum {
			t.Fatalf("x %v decoded as %v", x, back.Pos.X)
		}
		if d := math.Abs(back.Pos.Y - clamp(y, 0, 50)); d > 50*quantum {
			t.Fatalf("y %v decoded as %v", y, back.Pos.Y)
		}
		if d := math.Abs(back.Level - clamp(level, 6, 12)); d > 1+6*quantum {
			t.Fatalf("level %v decoded as %v, beyond the nearest level", level, back.Level)
		}
		if u := orig.Grad.Unit(); u.Norm() > 0 {
			if d := back.Grad.Sub(u).Norm(); d > 2*math.Sqrt2*quantum {
				t.Fatalf("direction %v decoded as %v", u, back.Grad)
			}
		}
	})
}
