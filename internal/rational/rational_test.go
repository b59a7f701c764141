package rational

import (
	"testing"
	"testing/quick"
)

func TestNewReduces(t *testing.T) {
	cases := []struct {
		num, den     int64
		wantN, wantD int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 7, 0, 1},
		{6, 3, 2, 1},
	}
	for _, c := range cases {
		r := frac(c.num, c.den)
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("frac(%d,%d) = %d/%d, want %d/%d", c.num, c.den, r.Num(), r.Den(), c.wantN, c.wantD)
		}
	}
}

func TestZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("frac(1,0) did not panic")
		}
	}()
	frac(1, 0)
}

func TestZeroValueIsZero(t *testing.T) {
	var r R
	if !r.Equal(FromInt(0)) {
		t.Fatalf("zero value = %v, want 0", r)
	}
	if got := r.Add(FromInt(3)); !got.Equal(FromInt(3)) {
		t.Fatalf("0+3 = %v", got)
	}
	if r.String() != "0" {
		t.Fatalf("zero renders %q", r.String())
	}
}

func TestArithmetic(t *testing.T) {
	half := frac(1, 2)
	third := frac(1, 3)
	if got := half.Add(third); !got.Equal(frac(5, 6)) {
		t.Errorf("1/2+1/3 = %v", got)
	}
	if got := half.Sub(third); !got.Equal(frac(1, 6)) {
		t.Errorf("1/2-1/3 = %v", got)
	}
	if got := half.Mul(third); !got.Equal(frac(1, 6)) {
		t.Errorf("1/2*1/3 = %v", got)
	}
	if got := half.Div(third); !got.Equal(frac(3, 2)) {
		t.Errorf("(1/2)/(1/3) = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	FromInt(1).Div(FromInt(0))
}

func TestMidIsStrictlyBetween(t *testing.T) {
	cases := [][2]R{
		{FromInt(1), FromInt(2)},
		{frac(1, 2), frac(2, 3)},
		{FromInt(-3), frac(-5, 2)},
		{frac(7, 3), frac(8, 3)},
	}
	for _, c := range cases {
		m := c[0].Mid(c[1])
		if !(c[0].Less(m) && m.Less(c[1])) {
			t.Errorf("Mid(%v,%v) = %v not strictly between", c[0], c[1], m)
		}
	}
}

func TestCmp(t *testing.T) {
	if FromInt(1).Cmp(FromInt(2)) != -1 {
		t.Error("1 < 2 failed")
	}
	if frac(2, 4).Cmp(frac(1, 2)) != 0 {
		t.Error("2/4 == 1/2 failed")
	}
	if frac(-1, 2).Cmp(frac(-2, 3)) != 1 {
		t.Error("-1/2 > -2/3 failed")
	}
}

func TestFloor(t *testing.T) {
	cases := []struct {
		r    R
		want int64
	}{
		{frac(7, 2), 3},
		{frac(-7, 2), -4},
		{FromInt(5), 5},
		{FromInt(-5), -5},
		{frac(1, 3), 0},
		{frac(-1, 3), -1},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.want {
			t.Errorf("Floor(%v) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestIsIntAndString(t *testing.T) {
	if !FromInt(4).IsInt() || frac(1, 2).IsInt() {
		t.Error("IsInt misclassifies")
	}
	if frac(3, 2).String() != "3/2" || FromInt(7).String() != "7" {
		t.Error("String format wrong")
	}
}

func TestMaxMin(t *testing.T) {
	a, b := frac(1, 2), frac(2, 3)
	if !Max(a, b).Equal(b) {
		t.Error("Max wrong")
	}
	if !Max(b, a).Equal(b) {
		t.Error("Max not symmetric")
	}
}

// small generates rationals with bounded components so quick-check
// arithmetic stays far from overflow.
func small(n1, d1, n2, d2 int16) (R, R) {
	den1, den2 := int64(d1)%100, int64(d2)%100
	if den1 == 0 {
		den1 = 1
	}
	if den2 == 0 {
		den2 = 1
	}
	return frac(int64(n1)%1000, den1), frac(int64(n2)%1000, den2)
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(n1, d1, n2, d2 int16) bool {
		a, b := small(n1, d1, n2, d2)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(n1, d1, n2, d2 int16) bool {
		a, b := small(n1, d1, n2, d2)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMidBetween(t *testing.T) {
	f := func(n1, d1, n2, d2 int16) bool {
		a, b := small(n1, d1, n2, d2)
		if a.Equal(b) {
			return a.Mid(b).Equal(a)
		}
		lo, hi := a, b
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		m := lo.Mid(hi)
		return lo.Less(m) && m.Less(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCmpAntisymmetric(t *testing.T) {
	f := func(n1, d1, n2, d2 int16) bool {
		a, b := small(n1, d1, n2, d2)
		return a.Cmp(b) == -b.Cmp(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloorBounds(t *testing.T) {
	f := func(n1, d1 int16) bool {
		a, _ := small(n1, d1, 0, 1)
		fl := FromInt(a.Floor())
		next := fl.Add(FromInt(1))
		return !a.Less(fl) && a.Less(next)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
