package geom

import (
	"math"
	"math/big"
)

// The Delaunay construction decides every combinatorial question with two
// predicates, orient and incircle, whose signs are exact: a float64
// evaluation settles the sign when it clears a forward error bound
// (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates", 1997, stage A), and math/big rationals, exact on
// any finite float64 input, settle the rest. The rational fallback
// allocates, but on sites that are not collinear or cocircular to the last
// bit it does not run.

const (
	// unitRoundoff is u = 2⁻⁵³, half an ulp of 1.
	unitRoundoff = 0x1p-53
	// orientBound and incircleBound are Shewchuk's ccwerrboundA and
	// iccerrboundA: the float determinant's sign is right whenever its
	// magnitude exceeds the bound times the permanent.
	orientBound   = (3 + 16*unitRoundoff) * unitRoundoff
	incircleBound = (10 + 96*unitRoundoff) * unitRoundoff
	// minPermanent is the smallest permanent the error bounds are trusted
	// at: below it the products may have lost bits to underflow, which
	// the bounds do not model.
	minPermanent = 0x1p-900
)

// orient returns +1 when a, b, c turn counterclockwise, −1 when they turn
// clockwise and 0 when they are collinear. The coordinates must be finite.
func orient(a, b, c Point) int {
	l := (a.X - c.X) * (b.Y - c.Y)
	r := (a.Y - c.Y) * (b.X - c.X)
	det := l - r
	perm := math.Abs(l) + math.Abs(r)
	if bound := orientBound * perm; perm >= minPermanent && (det > bound || -det > bound) {
		return sign(det)
	}
	return orientExact(a, b, c)
}

// incircle returns +1 when d lies strictly inside the circle through the
// counterclockwise triangle a, b, c, −1 when it lies strictly outside and
// 0 when the four points are cocircular. The coordinates must be finite.
func incircle(a, b, c, d Point) int {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	bc, cb := bdx*cdy, cdx*bdy
	ca, ac := cdx*ady, adx*cdy
	ab, ba := adx*bdy, bdx*ady
	alift := adx*adx + ady*ady
	blift := bdx*bdx + bdy*bdy
	clift := cdx*cdx + cdy*cdy
	det := alift*(bc-cb) + blift*(ca-ac) + clift*(ab-ba)
	perm := (math.Abs(bc)+math.Abs(cb))*alift + (math.Abs(ca)+math.Abs(ac))*blift +
		(math.Abs(ab)+math.Abs(ba))*clift
	if bound := incircleBound * perm; perm >= minPermanent && (det > bound || -det > bound) {
		return sign(det)
	}
	return incircleExact(a, b, c, d)
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// ratDiff returns p − q as an exact rational.
func ratDiff(p, q float64) *big.Rat {
	r := new(big.Rat).SetFloat64(p)
	return r.Sub(r, new(big.Rat).SetFloat64(q))
}

// orientExact is orient in rational arithmetic.
func orientExact(a, b, c Point) int {
	l := new(big.Rat).Mul(ratDiff(a.X, c.X), ratDiff(b.Y, c.Y))
	r := new(big.Rat).Mul(ratDiff(a.Y, c.Y), ratDiff(b.X, c.X))
	return l.Cmp(r)
}

// incircleExact is incircle in rational arithmetic.
func incircleExact(a, b, c, d Point) int {
	adx, ady := ratDiff(a.X, d.X), ratDiff(a.Y, d.Y)
	bdx, bdy := ratDiff(b.X, d.X), ratDiff(b.Y, d.Y)
	cdx, cdy := ratDiff(c.X, d.X), ratDiff(c.Y, d.Y)
	lift := func(x, y *big.Rat) *big.Rat {
		s := new(big.Rat).Mul(x, x)
		return s.Add(s, new(big.Rat).Mul(y, y))
	}
	cross := func(x1, y1, x2, y2 *big.Rat) *big.Rat {
		s := new(big.Rat).Mul(x1, y2)
		return s.Sub(s, new(big.Rat).Mul(y1, x2))
	}
	det := new(big.Rat).Mul(lift(adx, ady), cross(bdx, bdy, cdx, cdy))
	det.Add(det, new(big.Rat).Mul(lift(bdx, bdy), cross(cdx, cdy, adx, ady)))
	det.Add(det, new(big.Rat).Mul(lift(cdx, cdy), cross(adx, ady, bdx, bdy)))
	return det.Sign()
}
