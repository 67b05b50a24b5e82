package acoustic

import (
	"math"
	"math/rand"
	"testing"
)

// TestSelfNoiseDistribution checks the counter-based hiss of a
// microphone in a silent room, captured in 10 ms hops: zero mean, the
// configured RMS, the Gaussian tail masses, and no lag-1 correlation,
// neither overall nor across the hop boundaries where a reseeded
// generator used to restart.
func TestSelfNoiseDistribution(t *testing.T) {
	const sr, rms, hopN, hops = 44100.0, 0.01, 441, 2000
	mic := NewRoom(sr, 11).AddMicrophone("hiss", Position{}, rms)
	x := make([]float64, 0, hopN*hops)
	for k := 0; k < hops; k++ {
		buf := mic.Capture(float64(k*hopN)/sr, float64((k+1)*hopN)/sr)
		if buf.Len() != hopN {
			t.Fatalf("hop %d: %d samples, want %d", k, buf.Len(), hopN)
		}
		for _, v := range buf.Samples {
			x = append(x, v/rms)
		}
	}
	n := float64(len(x))
	var sum, sq, lag float64
	var over [4]float64 // counts of |x| > 1, 2, 3, 4
	for i, v := range x {
		sum += v
		sq += v * v
		if i > 0 {
			lag += v * x[i-1]
		}
		for k := range over {
			if math.Abs(v) > float64(k+1) {
				over[k]++
			}
		}
	}
	mean, ms := sum/n, sq/n
	if se := 1 / math.Sqrt(n); math.Abs(mean) > 5*se {
		t.Errorf("mean = %.5f σ, want 0 ± %.5f", mean, 5*se)
	}
	if math.Abs(ms-1) > 5*math.Sqrt(2/n) {
		t.Errorf("mean square = %.5f σ², want 1", ms)
	}
	if r := lag / (n - 1) / ms; math.Abs(r) > 5/math.Sqrt(n) {
		t.Errorf("lag-1 correlation = %.5f, want 0", r)
	}
	var edge float64
	for k := 1; k < hops; k++ {
		edge += x[k*hopN] * x[k*hopN-1]
	}
	if r := edge / (hops - 1) / ms; math.Abs(r) > 5/math.Sqrt(hops-1) {
		t.Errorf("lag-1 correlation across hop boundaries = %.4f, want 0", r)
	}
	for k, c := range over {
		p := math.Erfc(float64(k+1) / math.Sqrt2)
		if se := math.Sqrt(p * (1 - p) / n); math.Abs(c/n-p) > 5*se {
			t.Errorf("P(|x| > %dσ) = %.6f, want %.6f", k+1, c/n, p)
		}
	}
}

// BenchmarkSelfNoise compares the per-sample cost of the counter-based
// hiss with the math/rand Gaussian it replaced.
func BenchmarkSelfNoise(b *testing.B) {
	s := make([]float64, 2205)
	b.Run("counter", func(b *testing.B) {
		key := noiseKey(1, "mic")
		for i := 0; i < b.N; i++ {
			addSelfNoise(s, 0.01, key, int64(i*len(s)))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)), "ns/sample")
	})
	b.Run("math-rand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := range s {
				s[j] += rng.NormFloat64() * 0.01
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)), "ns/sample")
	})
}
