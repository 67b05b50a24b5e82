package core

import (
	"fmt"

	"mdn/internal/acoustic"
	"mdn/internal/mp"
	"mdn/internal/netsim"
)

// Relay is the multi-hop sound transmission the paper's Section 8
// leaves as an open question: a device with its own microphone and
// speaker that listens for tones in one frequency band and re-emits
// each confirmed onset translated onto another band. Relays extend
// the controller's acoustic reach beyond a single hop at the cost of
// one detection window of added latency per hop.
//
// Translation is mandatory: re-emitting the original frequency would
// let the relay hear itself and oscillate, and would present the
// controller with duplicate copies. A frequency-shifted copy is
// unambiguous and lets the controller tell direct from relayed paths.
type Relay struct {
	// Mapping translates heard frequency -> re-emitted frequency.
	Mapping map[float64]float64

	ctrl  *Controller
	voice *Voice
	onset *OnsetFilter

	// Relayed counts re-emitted tones.
	Relayed uint64
	// Ignored counts confirmed onsets with no mapping entry.
	Ignored uint64
}

// NewRelay builds a relay listening on mic and re-emitting through a
// speaker via the given Pi link. The relay's detector watches exactly
// the mapping's input frequencies.
func NewRelay(sim *netsim.Sim, mic *acoustic.Microphone, pi *mp.Pi, mapping map[float64]float64) (*Relay, error) {
	if len(mapping) == 0 {
		return nil, fmt.Errorf("core: relay requires a non-empty frequency mapping")
	}
	watch := make([]float64, 0, len(mapping))
	for in, out := range mapping {
		if in == out {
			return nil, fmt.Errorf("core: relay mapping %g -> %g would self-oscillate", in, out)
		}
		watch = append(watch, in)
	}
	det := NewDetector(MethodGoertzel, watch)
	r := &Relay{
		Mapping: mapping,
		ctrl:    NewController(sim, mic, det),
		voice:   NewVoice(sim, mp.NewSounder(pi)),
		onset:   NewOnsetFilter(),
	}
	r.ctrl.SubscribeWindows(r.handleWindow)
	return r, nil
}

// Detector exposes the relay's detector for threshold calibration.
func (r *Relay) Detector() *Detector { return r.ctrl.Detector }

// Start begins listening at time at.
func (r *Relay) Start(at float64) { r.ctrl.Start(at) }

func (r *Relay) handleWindow(_ float64, dets []Detection) {
	for _, det := range r.onset.Step(dets) {
		out, ok := r.Mapping[det.Frequency]
		if !ok {
			r.Ignored++
			continue
		}
		r.Relayed++
		r.voice.Play(out)
	}
}
