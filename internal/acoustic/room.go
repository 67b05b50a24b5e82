package acoustic

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mdn/internal/audio"
)

// Speaker is a sound emitter placed in the room. Speakers are created
// with Room.AddSpeaker.
type Speaker struct {
	// Name identifies the speaker (usually the switch it serves).
	Name string
	// Pos is the speaker's position.
	Pos Position

	room *Room

	// gainRamp and detuneRamp are the degradation model (degrade.go):
	// schedulable ramps on the speaker's output gain (base 1.0) and
	// frequency ratio (base 1.0), applied by Play at the emission's
	// scheduled start time.
	gainRamp   deviceParam
	detuneRamp deviceParam

	// pairs caches the geometry to every registered microphone,
	// indexed by Microphone.idx. Built at registration (positions are
	// fixed once placed) and extended by AddMicrophone, it is what the
	// capture scan indexes instead of recomputing a distance per
	// (emission, microphone).
	pairs []pairGeom
}

// Play schedules a tone to start at time at (seconds). The room keeps
// its emission list sorted by start time as tones are scheduled —
// usually a cheap append, since simulations schedule forward in time —
// so Capture never re-sorts.
func (s *Speaker) Play(at float64, tone audio.Tone) {
	r := s.room
	r.mu.Lock()
	defer r.mu.Unlock()
	// Degradation model: an aging driver loses level and drifts off
	// pitch. Both ramps evaluate at the emission's scheduled start, so
	// the stored emission is already degraded and every capture of it —
	// batch, streaming, any worker — renders identical samples. A
	// healthy speaker (no ramps) takes the multiply-free path.
	if len(s.gainRamp.ramps) > 0 {
		tone.Amplitude *= s.gainRamp.atBase(1, at)
	}
	if len(s.detuneRamp.ramps) > 0 {
		tone.Frequency *= s.detuneRamp.atBase(1, at)
	}
	r.insertEmission(emission{At: at, Tone: tone, sp: s, table: r.toneTable(tone.Frequency)})
}

// maxToneTables caps the room's tone tables at about 590 KB. A room
// whose frequencies keep changing (a speaker's detune ramp gives every
// emission its own) stops building tables at the cap; its later
// frequencies mix with a table built per call, which adds the same
// samples.
const maxToneTables = 1024

// PrepareTones builds the room's tone tables for freqs now, as their
// first plays would build them, so that those plays allocate nothing.
// A sender whose frequencies are fixed up front, such as a modem
// transmitter's band, prepares them once.
func (s *Speaker) PrepareTones(freqs []float64) {
	r := s.room
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range freqs {
		r.toneTable(f)
	}
}

// toneTable returns the table of tones of frequency freq, building it
// on the frequency's first play, or nil once the room holds
// maxToneTables. The caller holds r.mu for writing.
func (r *Room) toneTable(freq float64) *audio.ToneTable {
	key := math.Float64bits(freq)
	if tab, ok := r.tables[key]; ok {
		return tab
	}
	if len(r.tables) == maxToneTables {
		return nil
	}
	if r.tables == nil {
		r.tables = make(map[uint64]*audio.ToneTable)
	}
	tab := new(audio.ToneTable)
	*tab = audio.NewToneTable(freq, r.SampleRate)
	r.tables[key] = tab
	return tab
}

// emissionLess is a total order on emissions: start time first, then
// speaker and tone fields as tie-breaks. Keeping the list in a total
// order (rather than "sorted by At, ties in arrival order") makes the
// capture mix a pure function of the schedule — floating-point
// accumulation is order-sensitive at the last ulp, so two emissions
// starting at the same instant must still mix in a reproducible order
// no matter which Play call landed first. That is what lets the
// parallel sweep and fleet paths promise byte-identical output.
func emissionLess(a, b *emission) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.sp.Name != b.sp.Name {
		return a.sp.Name < b.sp.Name
	}
	if a.Tone.Frequency != b.Tone.Frequency {
		return a.Tone.Frequency < b.Tone.Frequency
	}
	if a.Tone.Duration != b.Tone.Duration {
		return a.Tone.Duration < b.Tone.Duration
	}
	if a.Tone.Amplitude != b.Tone.Amplitude {
		return a.Tone.Amplitude < b.Tone.Amplitude
	}
	return a.Tone.Phase < b.Tone.Phase
}

// Microphone is a capture point in the room. Microphones are created
// with Room.AddMicrophone.
type Microphone struct {
	// Name identifies the microphone.
	Name string
	// Pos is the microphone's position.
	Pos Position
	// SelfNoiseRMS is the electronics noise floor added to every
	// capture (linear RMS). Cheap microphones have a higher floor.
	SelfNoiseRMS float64

	room *Room

	// idx is the microphone's registration index: its slot in every
	// speaker's pair-geometry cache.
	idx int

	// noiseRamp and sensRamp are the degradation model (degrade.go):
	// schedulable ramps on the self-noise floor (base SelfNoiseRMS)
	// and the capture sensitivity (base 1.0; 0 = deaf), evaluated once
	// per capture at the window start.
	noiseRamp deviceParam
	sensRamp  deviceParam
}

// NoiseSource is a continuous background sound (ambience, a pop song,
// a running fan) placed in the room. Its buffer loops for the whole
// experiment; Gain scales it. Level in the buffer is the level at 1 m.
type NoiseSource struct {
	// Name identifies the source.
	Name string
	// Pos is the source position.
	Pos Position
	// Loop is the looped waveform.
	Loop *audio.Buffer
	// Gain scales the loop (1.0 = as recorded).
	Gain float64
	// From silences the source before this time (seconds).
	From float64
	// Until silences the source after this time; zero means forever.
	Until float64
}

// Room is the acoustic environment: a registry of speakers,
// microphones, and noise sources sharing one sample rate. The zero
// value is not usable; use NewRoom.
type Room struct {
	// SampleRate for all rendered audio, in Hz.
	SampleRate float64
	// Seed drives microphone self-noise.
	Seed int64
	// AirAbsorption, when true, applies frequency-dependent
	// atmospheric attenuation to tone emissions on top of the 1/r
	// law (see AirAbsorptionDBPerMetre). Narrowband tones attenuate
	// exactly; broadband noise sources are left at 1/r (their
	// spectra are dominated by low frequencies, where absorption is
	// negligible at room scales).
	AirAbsorption bool
	// CullThreshold enables audibility culling: an emission whose
	// received peak amplitude at a microphone — after distance
	// attenuation and, when modelled, air absorption — falls below the
	// floor is skipped instead of synthesized. 0 (the default)
	// disables culling: the mix is the bit-exact legacy full walk. Set
	// CullAuto to use each microphone's own SelfNoiseRMS as its floor
	// — the deployment default, since a tone buried below the
	// microphone's own electronics cannot change a detection. Any
	// positive value is an explicit shared linear-amplitude floor.
	//
	// Contract: the mix of the emissions at or above the floor is
	// bit-exact with the unculled mix (same walk order, same float
	// ops); the waveform error from the culled remainder is bounded by
	// the sum of their received amplitudes, each below the floor.
	CullThreshold float64

	// mu is a read-write lock: Play and the Add* registrations take
	// the write side; Capture holds the read side for the whole mix,
	// so any number of microphones can render the same window
	// concurrently without copying the emission list.
	mu        sync.RWMutex
	speakers  map[string]*Speaker
	mics      map[string]*Microphone
	micList   []*Microphone // registration order; Microphone.idx indexes it
	noise     []*NoiseSource
	emissions []emission // kept in emissionLess total order
	// endMax[i] is the max of At+Duration over emissions[0..i] — the
	// prefix-max expiry index capture and CompactBefore binary-search
	// (see store.go).
	endMax []float64
	// maxPairDelay is the worst-case speaker→microphone propagation
	// delay over all registered pairs: the safety margin when deciding
	// an emission can no longer be heard anywhere.
	maxPairDelay float64
	// horizon is the latest time passed to CompactBefore: captures of
	// windows starting before it may be missing dropped emissions.
	// CaptureChecked refuses such reads with ErrCompacted (ring.go).
	horizon float64
	// tables maps the bits of each frequency played or prepared (up to
	// maxToneTables of them) to its tone table. Play builds a table
	// under the write lock, once per frequency; captures only read
	// them. Each is its own 552-byte allocation, so a table never moves
	// and the room holds no spare capacity.
	tables map[uint64]*audio.ToneTable
	// tm is the capture-path telemetry; zero (all nil) until
	// Instrument.
	tm roomMetrics
}

// emission is one scheduled tone: its speaker starts playing Tone at
// At (seconds of experiment time; Tone.Amplitude is the level at 1 m),
// with the speaker resolved and the tone's table (nil past the room's cap),
// so Capture never does a map lookup per tone. It names the speaker
// only through sp, which keeps the record at 56 bytes.
type emission struct {
	At    float64
	Tone  audio.Tone
	sp    *Speaker
	table *audio.ToneTable
}

// NewRoom creates an empty room rendering at the given sample rate.
func NewRoom(sampleRate float64, seed int64) *Room {
	if sampleRate <= 0 {
		panic("acoustic: sample rate must be positive")
	}
	return &Room{
		SampleRate: sampleRate,
		Seed:       seed,
		speakers:   make(map[string]*Speaker),
		mics:       make(map[string]*Microphone),
	}
}

// AddSpeaker places a named speaker. It panics on duplicate names —
// testbed wiring errors should fail loudly at setup.
func (r *Room) AddSpeaker(name string, pos Position) *Speaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.speakers[name]; dup {
		panic(fmt.Sprintf("acoustic: duplicate speaker %q", name))
	}
	s := &Speaker{Name: name, Pos: pos, room: r}
	s.pairs = make([]pairGeom, len(r.micList))
	for i, m := range r.micList {
		s.pairs[i] = makePair(pos, m.Pos)
		if s.pairs[i].del > r.maxPairDelay {
			r.maxPairDelay = s.pairs[i].del
		}
	}
	r.speakers[name] = s
	return s
}

// AddMicrophone places a named microphone.
func (r *Room) AddMicrophone(name string, pos Position, selfNoiseRMS float64) *Microphone {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.mics[name]; dup {
		panic(fmt.Sprintf("acoustic: duplicate microphone %q", name))
	}
	m := &Microphone{
		Name: name, Pos: pos, SelfNoiseRMS: selfNoiseRMS,
		room: r, idx: len(r.micList),
	}
	for _, s := range r.speakers {
		g := makePair(s.Pos, pos)
		if g.del > r.maxPairDelay {
			r.maxPairDelay = g.del
		}
		s.pairs = append(s.pairs, g)
	}
	r.mics[name] = m
	r.micList = append(r.micList, m)
	return m
}

// AddNoise registers a background noise source. A nil or empty loop is
// ignored (returns nil).
func (r *Room) AddNoise(src *NoiseSource) *NoiseSource {
	if src == nil || src.Loop == nil || src.Loop.Len() == 0 {
		return nil
	}
	if src.Gain == 0 {
		src.Gain = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noise = append(r.noise, src)
	return src
}

// Speaker returns the named speaker or nil.
func (r *Room) Speaker(name string) *Speaker {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.speakers[name]
}

// Capture renders what the microphone hears over [from, to) seconds:
// every emission (attenuated by distance, delayed by propagation),
// every noise source, and the microphone's own noise floor. It
// allocates a fresh buffer per call; the polling hot path should use
// CaptureInto with a reused buffer instead.
func (m *Microphone) Capture(from, to float64) *audio.Buffer {
	return m.CaptureInto(nil, from, to)
}

// CaptureInto is Capture writing into out, which is grown as needed
// and returned (a nil out allocates one). Feeding each call's return
// value into the next reaches a steady state where capture allocates
// nothing: tones and self-noise are synthesized directly into the
// buffer, the emission list is walked in place under the room's read
// lock, and the list is start-time sorted so only the prefix that can
// be audible before to is visited at all.
//
// Captures may run concurrently, each into its own out: a microphone
// keeps no capture state. A capture is MixInto followed by
// AddSelfNoise over the whole span.
func (m *Microphone) CaptureInto(out *audio.Buffer, from, to float64) *audio.Buffer {
	out = m.MixInto(out, from, to)
	m.AddSelfNoise(out, from, 0, len(out.Samples))
	return out
}

// MixInto is the first step of CaptureInto: it renders everything the
// diaphragm picks up over [from, to) into out, grown as needed and
// returned — the emissions and room noise, scaled by the microphone's
// sensitivity — but not the microphone's self-noise, which
// AddSelfNoise adds.
func (m *Microphone) MixInto(out *audio.Buffer, from, to float64) *audio.Buffer {
	r := m.room
	n := int(math.Round((to - from) * r.SampleRate))
	if n < 0 {
		n = 0
	}
	if out == nil {
		out = &audio.Buffer{}
	}
	out.SampleRate = r.SampleRate
	if cap(out.Samples) >= n {
		out.Samples = out.Samples[:n]
	} else {
		out.Samples = make([]float64, n)
	}
	for i := range out.Samples {
		out.Samples[i] = 0
	}
	if n == 0 {
		return out
	}

	r.mu.RLock()
	// Emissions are sorted by At and arrive no earlier than they
	// start, so everything from the first At >= to onward is
	// inaudible in this window — binary-search the boundary. A second
	// search on the endMax prefix-max index bounds the live region
	// from below: emissions whose sound has died out everywhere before
	// from are skipped without iteration, so a long-running schedule
	// costs each window only its live span, not its whole history.
	ems := r.emissions
	cut := sort.Search(len(ems), func(i int) bool { return ems[i].At >= to })
	lo := r.liveFrom(from, cut)
	// Degradation model: every ramp is evaluated on the absolute time
	// grid, never at the capture's start, so a span renders the same
	// however it is split into captures. An emission's cull uses the
	// sensitivity and floor at its own arrival; the gain (below) and
	// the self-noise level (AddSelfNoise) are functions of the sample
	// index. A
	// healthy microphone (no ramps) evaluates all three to its base
	// values. Ramps only grow by append, so the schedules copied here
	// stay valid after the lock is released.
	sensRamp := m.sensRamp
	ramped := len(sensRamp.ramps) > 0 || len(m.noiseRamp.ramps) > 0
	sens, floor := 1.0, r.cullFloorAt(m, from) // exact for an unramped mic
	idx := m.idx
	var mixed, culled int
	for i := lo; i < cut; i++ {
		e := &ems[i]
		g := &e.sp.pairs[idx]
		arrive := e.At + g.del
		if arrive >= to || arrive+e.Tone.Duration <= from {
			continue
		}
		tone := e.Tone
		tone.Amplitude *= g.att
		if r.AirAbsorption {
			tone.Amplitude *= airAbsorption(tone.Frequency, g.dist)
		}
		// Audibility cull: the received peak amplitude is now final,
		// so one compare decides whether this emission can matter at
		// this microphone. With the floor at 0 nothing is culled and
		// the walk is the bit-exact legacy mix. Sensitivity applies to
		// the comparison (multiplying by the healthy 1.0 is exact):
		// what matters is the level after the degraded transducer.
		if ramped {
			sens, floor = m.sensAt(arrive), r.cullFloorAt(m, arrive)
		}
		if tone.Amplitude*sens < floor {
			culled++
			continue
		}
		tone.MixTableAt(out, arrive-from, audio.DefaultEnvelope, e.table)
		mixed++
	}
	scanned := cut - lo

	for _, src := range r.noise {
		m.mixNoise(out, src, from, to)
	}
	tm := r.tm
	r.mu.RUnlock()

	tm.scanned.Add(uint64(scanned))
	tm.mixed.Add(uint64(mixed))
	tm.culled.Add(uint64(culled))
	tm.scanHist.Observe(float64(scanned))

	// A degraded transducer scales everything it picked up — tones and
	// room noise alike — but not the self-noise AddSelfNoise adds,
	// which is electronics hiss downstream of the diaphragm: a deaf
	// microphone still hisses. Only a span a sensitivity ramp is moving
	// through pays for a per-sample gain; the healthy path (gain 1)
	// skips the pass so the legacy waveform stays bit-exact.
	first := int64(math.Round(from * r.SampleRate))
	t0, t1 := float64(first)/r.SampleRate, float64(first+int64(n-1))/r.SampleRate
	if sens, steady := sensRamp.steadyOver(1, t0, t1); !steady {
		for i := range out.Samples {
			out.Samples[i] *= sensRamp.atBase(1, float64(first+int64(i))/r.SampleRate)
		}
	} else if sens != 1 {
		for i := range out.Samples {
			out.Samples[i] *= sens
		}
	}

	return out
}

// AddSelfNoise is the second step of CaptureInto: it adds the
// microphone's self-noise to samples [lo, hi) of out, a MixInto of the
// span starting at from. Sample i's hiss is a function of (room seed,
// microphone name, absolute sample index) alone (selfnoise.go), and so
// is its level, so repeated or split captures of one span agree sample
// for sample, and so do the sample bands of one capture: disjoint
// bands may be added concurrently. Only a band a noise ramp is moving
// through pays for a per-sample level.
func (m *Microphone) AddSelfNoise(out *audio.Buffer, from float64, lo, hi int) {
	if lo >= hi {
		return
	}
	r := m.room
	r.mu.RLock()
	noise, baseNoise := m.noiseRamp, m.SelfNoiseRMS
	r.mu.RUnlock()
	first := int64(math.Round(from*r.SampleRate)) + int64(lo)
	s := out.Samples[lo:hi]
	t0, t1 := float64(first)/r.SampleRate, float64(first+int64(len(s)-1))/r.SampleRate
	if rms, steady := noise.steadyOver(baseNoise, t0, t1); !steady {
		key := noiseKey(r.Seed, m.Name)
		for i := range s {
			k := first + int64(i)
			if rms := noise.atBase(baseNoise, float64(k)/r.SampleRate); rms > 0 {
				addSelfNoise(s[i:i+1], rms, key, k)
			}
		}
	} else if rms > 0 {
		addSelfNoise(s, rms, noiseKey(r.Seed, m.Name), first)
	}
}

func (m *Microphone) mixNoise(out *audio.Buffer, src *NoiseSource, from, to float64) {
	r := m.room
	dist := src.Pos.Distance(m.Pos)
	gain := src.Gain * attenuation(dist)
	loop := src.Loop
	n := loop.Len()
	if n == 0 {
		return
	}
	start := src.From
	end := src.Until
	if end <= 0 {
		end = math.Inf(1)
	}
	sr := r.SampleRate
	nOut := len(out.Samples)
	// Active sample range [i0, i1): samples whose time
	// t = from + i/sr satisfies start <= t < end. Computed once
	// instead of re-checking the window per sample; the boundary
	// nudges below keep the set identical to the per-sample
	// comparisons under floating-point rounding.
	i0 := 0
	if start > from {
		i0 = int(math.Ceil((start - from) * sr))
		if i0 < 0 {
			i0 = 0
		}
		for i0 > 0 && from+float64(i0-1)/sr >= start {
			i0--
		}
		for i0 < nOut && from+float64(i0)/sr < start {
			i0++
		}
	}
	i1 := nOut
	if !math.IsInf(end, 1) {
		i1 = int(math.Ceil((end - from) * sr))
		if i1 > nOut {
			i1 = nOut
		}
		for i1 > 0 && from+float64(i1-1)/sr >= end {
			i1--
		}
		for i1 < nOut && from+float64(i1)/sr < end {
			i1++
		}
	}
	if i0 >= i1 {
		return
	}
	// Position within the looped buffer, delayed by propagation:
	// idx(i) = round((t_i - delay)*sr) advances by exactly one per
	// sample, so resolve it once and walk with a wrapping increment
	// instead of a Round and two modulos per sample.
	idx := int(math.Round((from + float64(i0)/sr - delay(dist)) * sr))
	idx %= n
	if idx < 0 {
		idx += n
	}
	for i := i0; i < i1; i++ {
		out.Samples[i] += float64(loop.Samples[idx] * gain)
		idx++
		if idx == n {
			idx = 0
		}
	}
}
