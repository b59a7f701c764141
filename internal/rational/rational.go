// Package rational implements small exact rational numbers.
//
// The paper's labeling scheme (§6, step 1b) may need to label a message
// with "a real number between two consecutive integers"; exact
// rationals make the construction order-stable and overflow-checked
// without pulling in math/big for what are tiny denominators in
// practice (labels are repeatedly halved between neighbors).
package rational

import (
	"fmt"
)

// R is an exact rational num/den with den > 0 and gcd(num,den)=1.
// The zero value is 0/1.
type R struct {
	num int64
	den int64
}

// frac returns num/den reduced to lowest terms. It panics if den is 0.
func frac(num, den int64) R {
	if den == 0 {
		panic("rational: zero denominator")
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd(abs(num), den)
	return R{num / g, den / g}
}

// FromInt returns n/1.
func FromInt(n int64) R { return R{n, 1} }

// Num returns the reduced numerator.
func (r R) Num() int64 { return r.norm().num }

// Den returns the reduced denominator (always positive).
func (r R) Den() int64 { return r.norm().den }

// norm maps the zero value onto 0/1.
func (r R) norm() R {
	if r.den == 0 {
		return R{0, 1}
	}
	return r
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// mulCheck multiplies with overflow detection.
func mulCheck(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a {
		panic(fmt.Sprintf("rational: overflow in %d*%d", a, b))
	}
	return c
}

// Add returns r+s.
func (r R) Add(s R) R {
	r, s = r.norm(), s.norm()
	return frac(mulCheck(r.num, s.den)+mulCheck(s.num, r.den), mulCheck(r.den, s.den))
}

// Sub returns r-s.
func (r R) Sub(s R) R {
	r, s = r.norm(), s.norm()
	return frac(mulCheck(r.num, s.den)-mulCheck(s.num, r.den), mulCheck(r.den, s.den))
}

// Mul returns r*s.
func (r R) Mul(s R) R {
	r, s = r.norm(), s.norm()
	return frac(mulCheck(r.num, s.num), mulCheck(r.den, s.den))
}

// Div returns r/s; it panics if s is zero.
func (r R) Div(s R) R {
	s = s.norm()
	if s.num == 0 {
		panic("rational: division by zero")
	}
	r = r.norm()
	return frac(mulCheck(r.num, s.den), mulCheck(r.den, s.num))
}

// Mid returns the midpoint (r+s)/2, the canonical "number strictly
// between" used by the labeling scheme.
func (r R) Mid(s R) R { return r.Add(s).Div(FromInt(2)) }

// Cmp returns -1, 0, or +1 as r is less than, equal to, or greater
// than s.
func (r R) Cmp(s R) int {
	r, s = r.norm(), s.norm()
	l := mulCheck(r.num, s.den)
	rr := mulCheck(s.num, r.den)
	switch {
	case l < rr:
		return -1
	case l > rr:
		return 1
	default:
		return 0
	}
}

// Less reports r < s.
func (r R) Less(s R) bool { return r.Cmp(s) < 0 }

// Equal reports r == s.
func (r R) Equal(s R) bool { return r.Cmp(s) == 0 }

// Floor returns the greatest integer ≤ r.
func (r R) Floor() int64 {
	r = r.norm()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// IsInt reports whether r is an integer.
func (r R) IsInt() bool { return r.norm().den == 1 }

// Float returns a float64 approximation (for rendering only).
func (r R) Float() float64 {
	r = r.norm()
	return float64(r.num) / float64(r.den)
}

// String renders "n" for integers and "n/d" otherwise.
func (r R) String() string {
	r = r.norm()
	if r.den == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}

// Max returns the larger of r and s.
func Max(r, s R) R {
	if r.Less(s) {
		return s
	}
	return r
}
