package core

import (
	"math"
	"math/rand"
	"testing"

	"mdn/internal/audio"
	"mdn/internal/dsp"
)

// oracleAmpsFFT is the FFT detector's amplitude estimate as it stood
// before the band-limited spectrum: the full magnitude spectrum, then
// each watch's peak magnitude within ToleranceHz.
func oracleAmpsFFT(d *Detector, buf *audio.Buffer) []float64 {
	n := buf.Len()
	fftSize := dsp.NextPowerOfTwo(n)
	plan := dsp.PlanFFT(fftSize)
	var scr dsp.FFTScratch
	mags := plan.WindowedSpectrumScratch(nil, buf.Samples, dsp.Hann, &scr)
	amps := make([]float64, len(d.watch))
	gain := dsp.Hann.Gain(n)
	span := int(math.Ceil(d.ToleranceHz / dsp.BinResolution(fftSize, buf.SampleRate)))
	for i, f := range d.watch {
		center := dsp.FrequencyBin(f, fftSize, buf.SampleRate)
		best := 0.0
		for k := center - span; k <= center+span; k++ {
			if k >= 0 && k < len(mags) && mags[k] > best {
				best = mags[k]
			}
		}
		amps[i] = 2 * best / (float64(n) * gain)
	}
	return amps
}

// fleetWatch is the fleet-scale watch list: 128 frequencies, four plan
// slots apart, in a 400 Hz–11 kHz plan.
func fleetWatch(t testing.TB) []float64 {
	w, err := NewFrequencyPlan(400, 11000, DefaultSpacing).AllocateSpaced("fleet", 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// noisyWindow is n samples of the given tones plus white noise, so
// every bin, DC and Nyquist included, carries energy.
func noisyWindow(n int, seed int64, freqs ...float64) *audio.Buffer {
	buf := &audio.Buffer{SampleRate: 44100, Samples: make([]float64, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := range buf.Samples {
		v := 0.01 * rng.NormFloat64()
		for j, f := range freqs {
			v += 0.02 * float64(j+1) * math.Sin(2*math.Pi*f*float64(i)/44100)
		}
		buf.Samples[i] = v
	}
	return buf
}

func requireOracleAmps(t *testing.T, name string, d *Detector, buf *audio.Buffer) {
	t.Helper()
	_, got := d.DetectCalibrated(buf, 0, d.MinAmplitude)
	want := oracleAmpsFFT(d, buf)
	if len(got) != len(want) {
		t.Fatalf("%s: %d amplitudes, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: watch %v Hz amplitude %v, oracle %v", name, d.watch[i], got[i], want[i])
		}
	}
}

// TestDetectorFFTMatchesOracle holds the band-limited detector to the
// full-spectrum one bit for bit: at the spectrum's edges, where the
// tolerance span is clipped at DC and Nyquist, at fleet scale, across
// an AddWatch and a tolerance change between windows, and on windows
// of several lengths.
func TestDetectorFFTMatchesOracle(t *testing.T) {
	edges := []float64{0, 3, 11, 25, 22030, 22045, 22050}
	for _, n := range []int{2205, 1000, 4096, 17} {
		d := NewDetector(MethodFFT, edges)
		requireOracleAmps(t, "edges", d, noisyWindow(n, int64(n), 11, 22045))

		d = NewDetector(MethodFFT, fleetWatch(t))
		buf := noisyWindow(n, int64(n)+1, 400, 1500, 10960)
		requireOracleAmps(t, "fleet", d, buf)
		d.AddWatch(5, 22050, 3000)
		requireOracleAmps(t, "fleet after AddWatch", d, noisyWindow(n, int64(n)+2, 3000, 22050))
		d.ToleranceHz = 45
		requireOracleAmps(t, "fleet after ToleranceHz change", d, buf)
	}
}

// TestDetectorFFTFleetScaleAllocs is the FFT detector's allocation
// gate: 128 watches in 400 Hz–11 kHz on a 50 ms (2205-sample) window
// allocate nothing per window once warm.
func TestDetectorFFTFleetScaleAllocs(t *testing.T) {
	d := NewDetector(MethodFFT, fleetWatch(t))
	buf := noisyWindow(2205, 9, 400, 1500, 10960)
	d.Detect(buf, 0) // warm up bins, power and scratch
	if allocs := testing.AllocsPerRun(100, func() { d.Detect(buf, 0) }); allocs != 0 {
		t.Errorf("fleet-scale FFT Detect allocates %.1f objects/window, want 0", allocs)
	}
}
