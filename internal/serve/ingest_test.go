package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"isomap/internal/core"
	"isomap/internal/geom"
	"isomap/internal/network"
)

// fuzzBodyLimit is the body cap of the decoder fuzz targets: small, so
// over-limit bodies are cheap to reach.
const fuzzBodyLimit = 4 << 10

// encodedRound is what a client built on encoding/json pushes: two
// reports, one of them a retirement, with negative, fractional and
// exponent-form numbers.
func encodedRound(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(ingestBody{Reports: []core.Report{
		{Level: 6, LevelIndex: 2, Pos: geom.Point{X: 12.5, Y: -3e-7}, Grad: geom.Vec{X: -0.6, Y: 0.8}, Source: 41},
		{Level: 1e21, LevelIndex: -1, Pos: geom.Point{X: 1, Y: 2}, Source: 7, Retire: true},
	}, SinkValue: 4.25})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// declinedBodies holds one body of every form parseRound declines, each
// valid or invalid for encoding/json in its own way.
func declinedBodies() []string {
	r := `{"level":6,"levelIndex":0,"pos":{"x":3,"y":3},"grad":{"x":1,"y":0},"source":1}`
	return []string{
		`{"Reports":[],"sinkValue":1}`,                     // case-folded key
		`{"reports":[{"Level":6}],"sinkValue":1}`,          // case-folded report key
		`{"reports":[],"sinkValue":1,"extra":[1,{"a":2}]}`, // unknown key
		`{"reports":null,"sinkValue":1}`,                   // null
		`{"reports":[` + r + `],"sinkValue":null}`,         // null number
		`{"report\u0073":[],"sinkValue":1}`,                // escaped key
		`{"reports":[],"sinkValue":1,"sinkValue":2}`,       // duplicate key
		`{"reports":[{"level":6,"level":7}],"sinkValue":1}`,
		`{"reports":[` + r + `],"reports":[],"sinkValue":1}`,
		`{"reports":[{"levelIndex":1.0}],"sinkValue":1}`, // non-integer ints
		`{"reports":[{"source":1e2}],"sinkValue":1}`,
		`{"reports":[],"sinkValue":1e999}`, // out-of-range numbers
		`{"reports":[{"levelIndex":99999999999999999999}],"sinkValue":1}`,
		`{"reports":[],"sinkValue":+1}`, // numbers outside the JSON grammar
		`{"reports":[],"sinkValue":01}`,
		`{"reports":[],"sinkValue":.5}`,
		`{"reports":[],"sinkValue":1.}`,
		`{"reports":[],"sinkValue":-}`,
		`{"reports":[{"retire":True}],"sinkValue":1}`,
		`{"reports":[],"sinkValue":1} x`, // trailing bytes
		`{"reports":[],"sinkValue":1}{}`,
		`{"reports":[` + r + `,],"sinkValue":1}`, // malformed
		`{"reports":[],"sinkValue":1`,
		"\ufeff" + `{"reports":[],"sinkValue":1}`, // byte-order mark
		`[]`,
		"",
	}
}

// overLimit is a complete value followed by bytes past the limit: a
// decoder that stops at the value accepts it without reading that far.
func overLimit(limit int) string {
	return `{"reports":[],"sinkValue":1}` + strings.Repeat(" ", limit) + "x"
}

// TestParseRoundTakesEncoderOutput checks that the fast path takes what
// encoding/json writes, whitespace around tokens included, and decodes it
// as json.Decoder does; and that it declines every form in declinedBodies.
func TestParseRoundTakesEncoderOutput(t *testing.T) {
	enc := encodedRound(t)
	var indented bytes.Buffer
	if err := json.Indent(&indented, enc, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{enc, indented.Bytes(), []byte(` {"sinkValue":-0,"reports":[]} ` + "\n")} {
		got, ok := parseRound(body)
		if !ok {
			t.Fatalf("parseRound declined %s", body)
		}
		var want ingestBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parseRound(%s) = %+v, json = %+v", body, got, want)
		}
	}
	for _, body := range append(declinedBodies(), overLimit(10)) {
		if _, ok := parseRound([]byte(body)); ok {
			t.Errorf("parseRound took %q", body)
		}
	}
}

// FuzzIngestDecode checks the pushed-round decoder against json.Decoder:
// for any bytes behind a MaxBytesReader, readRound must give the body
// json.NewDecoder(r).Decode gives (reflect.DeepEqual), the same error text
// and the same over-limit classification.
func FuzzIngestDecode(f *testing.F) {
	f.Add(encodedRound(f))
	for _, body := range declinedBodies() {
		f.Add([]byte(body))
	}
	f.Add([]byte(overLimit(fuzzBodyLimit)))
	f.Add([]byte(strings.Repeat(" ", fuzzBodyLimit+1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		limited := func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), fuzzBodyLimit)
		}
		got, gerr := readRound(limited(), int64(len(data)), fuzzBodyLimit)
		var want ingestBody
		werr := json.NewDecoder(limited()).Decode(&want)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("error %v, json.Decoder %v", gerr, werr)
		}
		var gm, wm *http.MaxBytesError
		if errors.As(gerr, &gm) != errors.As(werr, &wm) {
			t.Fatalf("over-limit classification differs: %v vs %v", gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %+v, json.Decoder %+v", got, want)
		}
	})
}

// BenchmarkIngestDecode times decoding a 1,000-report body of full-precision
// coordinates, the size of a push-query round: readRound against
// json.Decoder over the same bytes.
func BenchmarkIngestDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var body ingestBody
	for i := 0; i < 1000; i++ {
		g := geom.Vec{X: rng.NormFloat64(), Y: rng.NormFloat64()}.Unit()
		body.Reports = append(body.Reports, core.Report{Level: float64(2 * (i % 4)), LevelIndex: i % 4,
			Pos: geom.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400}, Grad: g, Source: network.NodeID(rng.Intn(16000))})
	}
	body.SinkValue = rng.Float64() * 10
	data, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, decode func() (ingestBody, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, err := decode(); err != nil || len(got.Reports) != 1000 {
					b.Fatal(err)
				}
			}
		})
	}
	run("readRound", func() (ingestBody, error) {
		return readRound(bytes.NewReader(data), int64(len(data)), 8<<20)
	})
	run("json.Decoder", func() (ingestBody, error) {
		var got ingestBody
		err := json.NewDecoder(bytes.NewReader(data)).Decode(&got)
		return got, err
	})
}
