package modem

import (
	"math"
	"slices"

	"mdn/internal/core"
	"mdn/internal/telemetry"
)

// Frame is one delivered payload.
type Frame struct {
	// Seq is the transmitter's frame sequence number.
	Seq byte
	// Time is the estimated frame start (the symbol clock's t0).
	Time float64
	// Payload is the CRC-verified payload.
	Payload []byte
}

// maxCodedBytes bounds the coded body any header can describe: the
// widest expansions of a full 257-byte body (payload ‖ CRC-16) are
// Hamming(7,4) at 450 bytes and RS with 120 parity at 497. A header
// implying more is treated as a header failure.
const maxCodedBytes = 512

// Receiver demodulates frames from controller capture windows. Wire
// it with Controller.SubscribeWindows(rx.HandleWindow); it works
// unchanged on batch windows and on overlapping streaming windows,
// because all it assumes is that window start times are
// non-decreasing and detection amplitude scales with window/tone
// overlap.
//
// Life of a frame: in the idle state the receiver accumulates sync
// pilot detections; the amplitude-weighted centroid of the observing
// windows' centers recovers each pilot's epoch center exactly (the
// Goertzel amplitude of a partially-overlapping tone is linear in the
// overlap), giving the symbol clock phase t0. Data detections seen
// before the clock lock are buffered and replayed once t0 is known.
// Locked, every data detection becomes an amplitude vote for (epoch,
// lane, value); the header is decoded as soon as windows move past
// its epochs, sizing the body; when windows pass the last body epoch
// the per-slot argmax nibbles are reassembled, FEC-decoded and
// CRC-checked. Sync tones heard while locked belong to the next
// frame and are stashed, then replayed after reset, so back-to-back
// frames need no gap.
//
// The steady-state window path (vote accumulation) allocates nothing
// once the vote table has grown to the rows of the longest frame heard;
// per-frame assembly and FEC decoding reuse the receiver's buffers, so
// a frame allocates only the delivered payload copy, which Frames and
// the OnFrame callback keep.
type Receiver struct {
	band *Band
	cfg  Config

	state int // rxIdle or rxCollect

	// Acquisition state.
	syncSum  [banks]float64 // Σ amplitude per pilot
	syncSumT [banks]float64 // Σ amplitude · window center
	haveSync bool
	lastSync float64   // window start of the last sync sighting
	pendData []pendObs // data dets seen before lock
	pendSync []pendObs // next frame's sync seen while locked

	// Collection state.
	t0         float64
	votes      []float64 // [dataEpoch][lane][value], flat; grown to the rows voted on
	maxData    int       // data-epoch rows any frame can need
	usedEpochs int       // high-water data epoch row + 1
	hdr        header
	hdrParsed  bool
	fec        FEC
	geo        geometry
	coded      []byte // the frame's reassembled coded body
	data       []byte // its FEC-decoded payload ‖ CRC-16

	// Frames holds delivered frames, oldest first, bounded by
	// framesMax with keep-last-N eviction.
	Frames []Frame
	// FramesEvicted counts frames dropped from Frames by the bound.
	FramesEvicted uint64

	onFrame func(Frame)

	// FramesRx counts CRC-verified frames delivered.
	FramesRx uint64
	// HeaderFailures counts frames abandoned because no header copy
	// passed its CRC-8 or the header described an impossible body.
	HeaderFailures uint64
	// CRCFailures counts frames whose body decoded but failed CRC-16.
	CRCFailures uint64
	// FECFailures counts frames whose FEC declared the body
	// uncorrectable.
	FECFailures uint64
	// FECCorrected counts symbol corrections the FEC reported across
	// delivered and CRC-failed frames.
	FECCorrected uint64
	// SymbolsRx counts data-tone detections folded into votes.
	SymbolsRx uint64
	// PayloadBits counts delivered payload bits (goodput numerator).
	PayloadBits uint64

	locked    bool
	firstLock float64
	lastDone  float64
}

// framesMax bounds the receiver's delivered-frame buffer.
const framesMax = 256

const (
	rxIdle = iota
	rxCollect
)

type pendObs struct {
	from, freq, amp float64
}

// NewReceiver builds a receiver for a band.
func NewReceiver(band *Band) *Receiver {
	cfg := band.cfg
	hdrE := frameGeometry(cfg, 0).hdrEpochs
	maxData := hdrE + (2*maxCodedBytes+cfg.Lanes-1)/cfg.Lanes
	return &Receiver{
		band:     band,
		cfg:      cfg,
		maxData:  maxData,
		pendData: make([]pendObs, 0, 512),
		pendSync: make([]pendObs, 0, 64),
	}
}

// OnFrame registers a delivery callback, invoked from HandleWindow as
// each frame verifies.
func (r *Receiver) OnFrame(fn func(Frame)) { r.onFrame = fn }

// HandleWindow consumes one controller capture window. Register it
// with Controller.SubscribeWindows.
func (r *Receiver) HandleWindow(from float64, dets []core.Detection) {
	if r.state == rxCollect {
		r.collectWindow(from, dets)
		return
	}
	r.idleWindow(from, dets)
}

// idleWindow accumulates sync pilots and buffers early data tones.
func (r *Receiver) idleWindow(from float64, dets []core.Detection) {
	syncSeen := false
	for _, d := range dets {
		ref, ok := r.band.lookup[d.Frequency]
		if !ok {
			continue
		}
		if ref.sync {
			syncSeen = true
			r.haveSync = true
			r.lastSync = from
			r.syncSum[ref.bank] += d.Amplitude
			r.syncSumT[ref.bank] += float64(d.Amplitude * (from + float64(r.cfg.WindowS/2)))
		} else if r.haveSync && len(r.pendData) < cap(r.pendData) {
			r.pendData = append(r.pendData, pendObs{from, d.Frequency, d.Amplitude})
		}
	}
	if r.haveSync && !syncSeen && from > r.lastSync {
		r.lock(from)
	}
}

// lock derives t0 from the pilot centroids, replays buffered data
// detections, and switches to collection.
func (r *Receiver) lock(from float64) {
	T := r.cfg.SymbolPeriod
	var t0Sum, wSum float64
	for b := 0; b < banks; b++ {
		if r.syncSum[b] > 0 {
			centroid := r.syncSumT[b] / r.syncSum[b] // ≈ t0 + (b+½)T
			t0Sum += float64((centroid - float64((float64(b)+0.5)*T)) * r.syncSum[b])
			wSum += r.syncSum[b]
		}
	}
	r.t0 = t0Sum / wSum
	r.state = rxCollect
	if !r.locked {
		r.locked = true
		r.firstLock = r.t0
	}
	pend := r.pendData
	r.pendData = r.pendData[:0]
	for _, p := range pend {
		if ref, ok := r.band.lookup[p.freq]; ok && !ref.sync {
			r.vote(p.from, ref, p.amp)
		}
	}
	r.checkProgress(from)
}

// collectWindow folds a window into the locked frame.
func (r *Receiver) collectWindow(from float64, dets []core.Detection) {
	for _, d := range dets {
		ref, ok := r.band.lookup[d.Frequency]
		if !ok {
			continue
		}
		if ref.sync {
			// The current frame's pilots are long past once we are
			// locked: this is the next frame announcing itself.
			if len(r.pendSync) < cap(r.pendSync) {
				r.pendSync = append(r.pendSync, pendObs{from, d.Frequency, d.Amplitude})
			}
			continue
		}
		r.vote(from, ref, d.Amplitude)
	}
	r.checkProgress(from)
}

// vote attributes one data detection to the same-bank epoch its
// window overlaps most and adds an amplitude vote for its value.
func (r *Receiver) vote(from float64, ref toneRef, amp float64) {
	T := r.cfg.SymbolPeriod
	W := r.cfg.WindowS
	a := (from - r.t0) / T
	lo := int(math.Floor(a)) - 1
	hi := int(math.Floor(a+W/T)) + 1
	best, bestOv := -1, 0.0
	for e := lo; e <= hi; e++ {
		if e < 2 || e%banks != ref.bank || e-2 >= r.maxData {
			continue
		}
		es := r.t0 + float64(float64(e)*T)
		ov := math.Min(from+W, es+T) - math.Max(from, es)
		if ov > bestOv {
			best, bestOv = e, ov
		}
	}
	if best < 0 {
		return
	}
	r.SymbolsRx++
	row := best - 2
	if row+1 > r.usedEpochs {
		r.usedEpochs = row + 1
	}
	if n := r.usedEpochs * r.cfg.Lanes * symbolValues; n > len(r.votes) {
		r.votes = append(r.votes, make([]float64, n-len(r.votes))...)
	}
	r.votes[(row*r.cfg.Lanes+ref.lane)*symbolValues+ref.val] += amp
}

// argmax returns the winning nibble value for one (data epoch row,
// lane) slot; all-zero votes (a fully erased symbol, or a row past the
// table) yield 0.
func (r *Receiver) argmax(row, lane int) int {
	base := (row*r.cfg.Lanes + lane) * symbolValues
	if base >= len(r.votes) {
		return 0
	}
	best, bestA := 0, 0.0
	for v := 0; v < symbolValues; v++ {
		if a := r.votes[base+v]; a > bestA {
			best, bestA = v, a
		}
	}
	return best
}

// checkProgress advances the frame state machine: windows starting at
// or after an epoch's end can no longer contribute votes to it, so
// the header (then the body) is final once `from` passes its epochs.
func (r *Receiver) checkProgress(from float64) {
	T := r.cfg.SymbolPeriod
	if !r.hdrParsed {
		hdrE := frameGeometry(r.cfg, 0).hdrEpochs
		if from < r.t0+float64(float64(2+hdrE)*T) {
			return
		}
		if !r.parseHeaderVotes() {
			r.HeaderFailures++
			r.resetAndReplay()
			return
		}
	}
	if from >= r.t0+float64(float64(r.geo.totalEpochs)*T) {
		r.finish(from)
	}
}

// parseHeaderVotes decodes the twice-sent header from the vote table
// and sizes the body.
func (r *Receiver) parseHeaderVotes() bool {
	var hdr [headerBytes * headerCopies]byte
	for i := range 2 * len(hdr) {
		setNibble(hdr[:], i, r.argmax(i/r.cfg.Lanes, i%r.cfg.Lanes))
	}
	h, ok := parseHeader(hdr[:headerBytes])
	if !ok {
		h, ok = parseHeader(hdr[headerBytes:])
	}
	if !ok || h.PayloadLen == 0 {
		return false
	}
	fec, err := FECByID(h.FECID)
	if err != nil {
		return false
	}
	coded := fec.CodedLen(h.PayloadLen + 2)
	if coded > maxCodedBytes {
		return false
	}
	geo := frameGeometry(r.cfg, coded)
	r.hdr, r.fec, r.geo, r.hdrParsed = h, fec, geo, true
	return true
}

// finish reassembles, FEC-decodes and CRC-checks the completed frame,
// then resets for the next one.
func (r *Receiver) finish(from float64) {
	codedLen := r.fec.CodedLen(r.hdr.PayloadLen + 2)
	r.coded = slices.Grow(r.coded[:0], codedLen)[:codedLen]
	for i := 0; i < 2*codedLen; i++ {
		row := r.geo.hdrEpochs + i/r.cfg.Lanes
		setNibble(r.coded, i, r.argmax(row, i%r.cfg.Lanes))
	}
	data, corrected, err := r.fec.appendDecode(r.data[:0], r.coded, r.hdr.PayloadLen+2)
	r.data = data
	if err != nil {
		r.FECFailures++
		r.resetAndReplay()
		return
	}
	r.FECCorrected += uint64(corrected)
	payload := data[:r.hdr.PayloadLen]
	want := uint16(data[len(data)-2])<<8 | uint16(data[len(data)-1])
	if crc16(payload) != want {
		r.CRCFailures++
		r.resetAndReplay()
		return
	}
	fr := Frame{Seq: r.hdr.Seq, Time: r.t0, Payload: append([]byte(nil), payload...)}
	r.FramesRx++
	r.PayloadBits += 8 * uint64(len(payload))
	r.lastDone = from
	r.Frames = append(r.Frames, fr)
	if n := len(r.Frames) - framesMax; n > 0 {
		r.FramesEvicted += uint64(n)
		r.Frames = append(r.Frames[:0], r.Frames[n:]...)
	}
	if r.onFrame != nil {
		r.onFrame(fr)
	}
	r.resetAndReplay()
}

// resetAndReplay returns to idle and replays sync pilots stashed
// while locked, so a frame starting in the tail of the previous one
// is acquired with its full pilot energy.
func (r *Receiver) resetAndReplay() {
	for i := 0; i < r.usedEpochs*r.cfg.Lanes*symbolValues; i++ {
		r.votes[i] = 0
	}
	r.usedEpochs = 0
	r.state = rxIdle
	r.hdrParsed = false
	r.haveSync = false
	r.syncSum = [banks]float64{}
	r.syncSumT = [banks]float64{}
	r.pendData = r.pendData[:0]
	pend := r.pendSync
	r.pendSync = r.pendSync[:0]
	for _, p := range pend {
		ref := r.band.lookup[p.freq]
		r.haveSync = true
		r.lastSync = p.from
		r.syncSum[ref.bank] += p.amp
		r.syncSumT[ref.bank] += float64(p.amp * (p.from + float64(r.cfg.WindowS/2)))
	}
}

// GoodputBps is the delivered payload rate: verified payload bits
// over the span from the first frame's clock lock to the last
// delivery. Zero until two timestamps exist.
func (r *Receiver) GoodputBps() float64 {
	if !r.locked || r.lastDone <= r.firstLock {
		return 0
	}
	return float64(r.PayloadBits) / (r.lastDone - r.firstLock)
}

// Instrument exposes the receiver's counters under the given channel
// name.
func (r *Receiver) Instrument(reg *telemetry.Registry, channel string) {
	l := func(name string) string { return telemetry.Label(name, "channel", channel) }
	reg.Func(l("mdn_modem_frames_rx"), func() float64 { return float64(r.FramesRx) })
	reg.Func(l("mdn_modem_header_failures"), func() float64 { return float64(r.HeaderFailures) })
	reg.Func(l("mdn_modem_crc_failures"), func() float64 { return float64(r.CRCFailures) })
	reg.Func(l("mdn_modem_fec_failures"), func() float64 { return float64(r.FECFailures) })
	reg.Func(l("mdn_modem_fec_corrected"), func() float64 { return float64(r.FECCorrected) })
	reg.Func(l("mdn_modem_symbols_rx"), func() float64 { return float64(r.SymbolsRx) })
	reg.Func(l("mdn_modem_payload_bits"), func() float64 { return float64(r.PayloadBits) })
	reg.Func(l("mdn_modem_goodput_bps"), r.GoodputBps)
}
