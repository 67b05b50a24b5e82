package scenario

import "testing"

func modemSweepTestConfig() ModemSweepConfig {
	return ModemSweepConfig{Seed: 7}
}

// TestModemSweepRSRecoversAtFivePercent is the PR's acceptance sweep:
// with Reed-Solomon enabled, a seeded ≥5% symbol-corruption attack on
// the payload epochs loses no frames at all.
func TestModemSweepRSRecoversAtFivePercent(t *testing.T) {
	rep, err := RunModemSweep(modemSweepTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var checked bool
	for _, p := range rep.Points {
		if p.FEC != "rs_p48" {
			continue
		}
		if p.FramesTx == 0 {
			t.Fatalf("rs point at %.0f%% sent nothing", 100*p.CorruptRate)
		}
		if p.CorruptRate > 0 && p.SymbolsCorrupted == 0 {
			t.Fatalf("rs point at %.0f%%: corruptor never fired", 100*p.CorruptRate)
		}
		if p.CorruptRate <= 0.05 {
			checked = true
			if p.FramesRx != p.FramesTx {
				t.Errorf("rs at %.0f%% corruption: recovered %d of %d frames, want all\n%s",
					100*p.CorruptRate, p.FramesRx, p.FramesTx, rep.Table())
			}
		}
	}
	if !checked {
		t.Fatal("sweep grid missing the rs_p48 ≤5% points")
	}
}

// TestModemSweepGracefulDegradation pins the shape of the grid: clean
// points deliver everything at ≥10× the melody baseline (~25 bit/s),
// and the uncoded channel visibly loses frames under heavy corruption
// while never delivering a corrupted payload silently (CRC counts the
// casualties).
func TestModemSweepGracefulDegradation(t *testing.T) {
	rep, err := RunModemSweep(modemSweepTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const melodyBaseline = 25.0
	for _, p := range rep.Points {
		if p.CorruptRate == 0 {
			if p.FramesRx != p.FramesTx {
				t.Errorf("%s clean: %d of %d frames", p.FEC, p.FramesRx, p.FramesTx)
			}
			// Uncoded carries the 10× acceptance floor; coded schemes
			// trade rate (4/7 for Hamming, ~58% for rs_p48 at this
			// frame size) for recovery and must still clear 5×.
			floor := 10 * melodyBaseline
			if p.FEC != "none" {
				floor = 5 * melodyBaseline
			}
			if p.GoodputBps < floor {
				t.Errorf("%s clean: goodput %.1f bit/s < floor %.0f bit/s", p.FEC, p.GoodputBps, floor)
			}
		}
		if p.FramesRx < p.FramesTx && p.CRCFailures == 0 && p.FECFailures == 0 && p.HeaderFailures == 0 {
			t.Errorf("%s at %.0f%%: lost frames with no failure accounted", p.FEC, 100*p.CorruptRate)
		}
	}
	var uncodedHeavy *ModemSweepPoint
	for i := range rep.Points {
		p := &rep.Points[i]
		if p.FEC == "none" && p.CorruptRate == 0.10 {
			uncodedHeavy = p
		}
	}
	if uncodedHeavy == nil {
		t.Fatal("grid missing none@10%")
	}
	if uncodedHeavy.FramesRx == uncodedHeavy.FramesTx {
		t.Errorf("uncoded channel survived 10%% corruption unscathed — corruptor inert?\n%s", rep.Table())
	}
}

// TestModemSweepStreamPathDelivers runs the sweep's rs_p48 column on
// the streaming detection path: overlapping 10 ms hops must demodulate
// the same frames.
func TestModemSweepStreamPathDelivers(t *testing.T) {
	cfg := ModemSweepConfig{Seed: 7, FECs: []string{"rs_p48"}, CorruptRates: []float64{0, 0.05}, StreamHop: 0.010}
	rep, err := RunModemSweep(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.FramesRx != p.FramesTx {
			t.Errorf("stream rs at %.0f%%: %d of %d frames\n%s",
				100*p.CorruptRate, p.FramesRx, p.FramesTx, rep.Table())
		}
	}
}

func TestModemSweepRejectsBadConfig(t *testing.T) {
	if _, err := RunModemSweep(ModemSweepConfig{FECs: []string{"nonsense"}}, nil); err == nil {
		t.Error("unknown FEC accepted")
	}
	if _, err := RunModemSweep(ModemSweepConfig{CorruptRates: []float64{1.5}}, nil); err == nil {
		t.Error("out-of-range rate accepted")
	}
	if _, err := RunModemSweep(ModemSweepConfig{StreamHop: 0.012}, nil); err == nil {
		t.Error("misaligned stream hop accepted")
	}
}
