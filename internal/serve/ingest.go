package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"isomap/internal/core"
	"isomap/internal/network"
)

// readRound reads and decodes a pushed round body. body is the request
// body behind its http.MaxBytesReader, size the request's ContentLength and
// limit the byte cap. The result — body and error, error text included —
// is exactly what json.NewDecoder(body).Decode would give. The bytes are
// read whole, pre-sized from size when it fits under limit. When the read
// succeeded and parseRound takes them, that is the result; otherwise
// json.Decoder decodes the bytes read, followed by the read's error when
// the read failed.
func readRound(body io.Reader, size, limit int64) (ingestBody, error) {
	var buf bytes.Buffer
	if size > 0 && size <= limit {
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(body)
	if readErr == nil {
		if b, ok := parseRound(buf.Bytes()); ok {
			return b, nil
		}
	}
	var r io.Reader = bytes.NewReader(buf.Bytes())
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	var b ingestBody
	err := json.NewDecoder(r).Decode(&b)
	return b, err
}

// errReader is a reader that only fails.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseRound is readRound's fast path. It takes one JSON object holding
// at most the keys "reports" and "sinkValue", each report an object of
// Report's keys, spelled exactly and each at most once, with whitespace
// only after it, and returns what encoding/json decodes from it. It never
// reports an error: anything else — case-folded or unknown keys, null,
// escapes, duplicate keys, a fraction or exponent in an integer field, a
// number out of range, trailing bytes — is declined (ok false), and
// encoding/json decides.
func parseRound(data []byte) (b ingestBody, ok bool) {
	p := roundParser{b: data}
	var seen uint8
	ok = p.object(func(key []byte) bool {
		switch string(key) {
		case "reports":
			return once(&seen, 1) && p.reports(&b.Reports)
		case "sinkValue":
			return once(&seen, 2) && p.floatValue(&b.SinkValue)
		}
		return false
	})
	p.ws()
	return b, ok && p.i == len(p.b)
}

// roundParser is parseRound's cursor over the body.
type roundParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *roundParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes byte c after whitespace, reporting whether it was there.
func (p *roundParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// once records key bit in seen, reporting false for a duplicate key.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object parses an object, calling member with each key once the cursor
// is at its value; member parses the value or returns false.
func (p *roundParser) object(member func(key []byte) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	for {
		if !p.next('"') {
			return false
		}
		// A key holding an escape or a quote matches no known key.
		end := bytes.IndexByte(p.b[p.i:], '"')
		if end < 0 {
			return false
		}
		key := p.b[p.i : p.i+end]
		p.i += end + 1
		if !p.next(':') || !member(key) {
			return false
		}
		if !p.next(',') {
			return p.next('}')
		}
	}
}

// reports parses the reports array into a non-nil slice, as
// encoding/json does for [].
func (p *roundParser) reports(dst *[]core.Report) bool {
	if !p.next('[') {
		return false
	}
	rs := []core.Report{}
	if !p.next(']') {
		for {
			var r core.Report
			if !p.report(&r) {
				return false
			}
			rs = append(rs, r)
			if !p.next(',') {
				if !p.next(']') {
					return false
				}
				break
			}
		}
	}
	*dst = rs
	return true
}

// report parses one report object.
func (p *roundParser) report(r *core.Report) bool {
	var seen uint8
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "level":
			return once(&seen, 1) && p.floatValue(&r.Level)
		case "levelIndex":
			return once(&seen, 2) && p.intValue(&r.LevelIndex)
		case "pos":
			return once(&seen, 4) && p.xy(&r.Pos.X, &r.Pos.Y)
		case "grad":
			return once(&seen, 8) && p.xy(&r.Grad.X, &r.Grad.Y)
		case "source":
			var s int
			ok := once(&seen, 16) && p.intValue(&s)
			r.Source = network.NodeID(s)
			return ok
		case "retire":
			return once(&seen, 32) && p.boolValue(&r.Retire)
		}
		return false
	})
}

// xy parses a point or vector object {"x":…,"y":…}.
func (p *roundParser) xy(x, y *float64) bool {
	var seen uint8
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "x":
			return once(&seen, 1) && p.floatValue(x)
		case "y":
			return once(&seen, 2) && p.floatValue(y)
		}
		return false
	})
}

// number scans a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reporting whether it
// has no fraction or exponent.
func (p *roundParser) number() (lit []byte, integer, ok bool) {
	p.ws()
	start := p.i
	p.skip('-')
	switch {
	case p.skip('0'):
	case p.digits() == 0:
		return nil, false, false
	}
	integer = true
	if p.skip('.') {
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if p.skip('e') || p.skip('E') {
		if !p.skip('+') {
			p.skip('-')
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return p.b[start:p.i], integer, true
}

// skip consumes byte c if it is next, with no whitespace before it.
func (p *roundParser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (p *roundParser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// floatValue parses a number as encoding/json does for a float64 field.
func (p *roundParser) floatValue(v *float64) bool {
	lit, _, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*v = f
	return err == nil
}

// intValue parses a number as encoding/json does for an int field, declining
// the literals it rejects.
func (p *roundParser) intValue(v *int) bool {
	lit, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

// boolValue parses true or false.
func (p *roundParser) boolValue(v *bool) bool {
	p.ws()
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*v = true
		p.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*v = false
		p.i += 5
	default:
		return false
	}
	return true
}
