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

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF should return NaN quantile")
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
