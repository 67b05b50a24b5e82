package dsp

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if c.Len() != 100 {
		t.Fatalf("len = %d", c.Len())
	}
	if q := c.Quantile(0); q != 1 {
		t.Errorf("q0 = %g, want 1", q)
	}
	if q := c.Quantile(1); q != 100 {
		t.Errorf("q1 = %g, want 100", q)
	}
	if q := c.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Errorf("median = %g, want 50.5", q)
	}
	if q := c.Quantile(0.9); math.Abs(q-90.1) > 1e-9 {
		t.Errorf("p90 = %g, want 90.1", q)
	}
}

func TestCDFAt(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 2, 3} {
		c.Add(v)
	}
	cases := []struct {
		v    float64
		want float64
	}{{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1}}
	for _, tc := range cases {
		if got := c.At(tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tc.v, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF should return NaN quantile")
	}
	if c.At(1) != 0 {
		t.Error("empty CDF At should be 0")
	}
	if !strings.Contains(c.String(), "empty") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCDFMeanAndString(t *testing.T) {
	var c CDF
	c.Add(2)
	c.Add(4)
	if !strings.Contains(c.String(), "n=2") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCDFSeriesSortedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
		}
		values, probs := c.Series()
		if len(values) != len(probs) {
			return false
		}
		if !sort.Float64sAreSorted(values) {
			return false
		}
		for i, p := range probs {
			want := float64(i+1) / float64(len(probs))
			if math.Abs(p-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
		}
		if c.Len() == 0 {
			return true
		}
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return c.Quantile(qa) <= c.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRMSAndMeanAbs(t *testing.T) {
	if RMS(nil) != 0 || MeanAbs(nil) != 0 {
		t.Error("empty input should give 0")
	}
	x := []float64{3, -4}
	if got := RMS(x); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", got)
	}
	if got := MeanAbs(x); got != 3.5 {
		t.Errorf("MeanAbs = %g", got)
	}
	// RMS of a unit sine is 1/sqrt(2).
	s := sine(440, 44100, 44100)
	if got := RMS(s); math.Abs(got-1/math.Sqrt2) > 0.01 {
		t.Errorf("sine RMS = %g, want %g", got, 1/math.Sqrt2)
	}
}
