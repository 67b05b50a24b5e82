package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/parallel"
	"mdn/internal/telemetry"
)

// Fleet is the controller's one detection pipeline, batch or streamed:
// one analysis window fanned out over N microphones by the caller and
// its helper goroutines, each running its own Detector clone. A window
// with fewer active microphones than workers — a controller's lone
// microphone — is split instead when its Goertzel bank runs at least
// two passes: each microphone's self-noise by sample band (batch
// windows only) and then its bank by pass become the work items (see
// prepareSplit). The paper's deployments are fleets — many
// switches emitting tones toward one listening controller — and a
// single Detector cannot serve them concurrently because its
// per-window scratch is reused (the DSP plans underneath are shared
// and concurrency-safe; the scratch is not). Cloning the detector per
// worker shares the plans and duplicates only the scratch. At
// hop < window (see setHop) each microphone's lane keeps the
// window − hop overlap, so a hop captures only its new span.
//
// Determinism contract: Analyse returns the same detection slice for
// the same room state regardless of worker count or scheduling order.
// Workers write into per-microphone result slots, and the merge step
// runs once every microphone is done, ordering detections by (time, frequency)
// with microphone registration order breaking exact ties — so
// subscriber semantics are identical to a serial multi-microphone
// loop. A lone microphone on the batch path keeps the detector's
// watch-list order, as a bare Detector would.
//
// A Fleet is driven from one goroutine (the simulation loop):
// AddMicrophone and Analyse must not race each other. The concurrency
// is inside Analyse, between the caller and its helpers (see publish).
// A helper left idle for spinBudget exits, and the next parallel window
// starts it again, so a fleet that is never closed holds no goroutine
// between bursts of windows.
type Fleet struct {
	template *Detector
	workers  int // caller + helpers: min(requested, GOMAXPROCS)

	mics    []*acoustic.Microphone
	dets    []*Detector     // one clone per worker
	bufs    []*audio.Buffer // one capture buffer per worker
	out     [][]Detection   // per-microphone results, reused
	amps    [][]float64     // per-microphone pre-threshold amplitudes, reused
	merged  []Detection
	sortTmp []Detection // merge-sort scratch, reserved with merged

	// Stream state (see setHop): the window in seconds while a stream
	// drives the fleet (0 on the batch path), and the lanes, which exist
	// only at hop < window.
	streamWindow float64
	windowN      int
	lanes        []lane
	appendHop    bool // the in-flight attempt appends the hop to the lanes

	// mon, when set, receives each microphone's per-window amplitude
	// estimates and supplies per-microphone detection floors (see
	// Controller.EnableDeviceMonitor).
	mon *DeviceMonitor

	// Quarantine state: quarMu guards the flags so SetQuarantined is
	// safe from any goroutine; Analyse snapshots the active index list
	// under the lock at fan-out, so mid-window flips land on the next
	// window. Each microphone writes only its own result slots, so the
	// merge stays byte-identical at any worker count for a given
	// quarantine set.
	quarMu      sync.Mutex
	quarantined []bool
	active      []int
	activeDirty bool

	// Captured span and analysed window start of the in-flight window,
	// read by helpers after a claim (see claim).
	from, to, winStart float64

	// Split state of the in-flight window (see prepareSplit): passes is
	// 0 when the window is handed out by microphone. Otherwise active
	// position a analyses views[a] (nil: nothing to analyse) with
	// dets[a]'s bank, as bands noise items and then passes bank items.
	bands, passes int
	views         []*audio.Buffer

	// Hot hand-off (publish, claim, helper): gen counts published
	// windows, claimWord packs a window's item count (high half) and
	// next unclaimed item (low half), done counts its finished items.
	// alive[w] is set while helper w runs; Close waits on exited.
	gen, claimWord atomic.Uint64
	done           atomic.Int64
	stop           atomic.Bool
	alive          []atomic.Bool
	exited         sync.WaitGroup

	// cloneRev is the template watch-list revision the worker clones
	// were built from. Analyse snapshots the revision at fan-out and
	// re-checks it at merge: if another goroutine added a watch
	// frequency mid-window, the clones analysed a stale list, so the
	// window is re-run (bounded by staleRetries) rather than silently
	// published with the old watch set.
	cloneRev uint64

	// StaleWindows counts window analyses discarded and retried because
	// the watch list changed between fan-out and merge.
	StaleWindows uint64

	window *telemetry.Histogram
	stale  *telemetry.Counter
	wall   telemetry.TimeSource
}

// staleRetries bounds how many times one window re-runs after a
// mid-window watch-list edit. Edits are rare (human or control-plane
// scale, versus the 20 Hz window loop), so in practice one retry
// settles it; the bound only prevents a pathological editor looping
// the analysis forever.
const staleRetries = 3

// spinBudget is how long a helper that finished a window yields for
// the next before it exits, so consecutive windows never pay a
// goroutine start.
const spinBudget = 200 * time.Microsecond

// NewFleet builds a fleet of workers detector clones, the caller and
// workers − 1 helpers (workers <= 0 means GOMAXPROCS, and more is
// capped there: a worker without a processor only adds wake-ups). The
// template stays live: watch-list additions and threshold changes made
// to it (for example through Controller.Detector) are picked up at the
// next Analyse.
func NewFleet(template *Detector, workers int) *Fleet {
	if template == nil {
		panic("core: NewFleet requires a detector template")
	}
	workers = min(parallel.Workers(workers), runtime.GOMAXPROCS(0))
	return &Fleet{
		template: template,
		workers:  workers,
		views:    make([]*audio.Buffer, workers),
		alive:    make([]atomic.Bool, workers),
	}
}

// lane is one microphone's state at hop < window: the ring holding the
// window − hop overlap, and the in-flight hop's append error.
type lane struct {
	ring *acoustic.CaptureRing
	err  error
}

// AddMicrophone registers one listening point. Call from the driving
// goroutine only, not concurrently with Analyse.
func (f *Fleet) AddMicrophone(m *acoustic.Microphone) {
	if m == nil {
		panic("core: Fleet.AddMicrophone requires a microphone")
	}
	f.mics = append(f.mics, m)
	f.out = append(f.out, nil)
	f.amps = append(f.amps, nil)
	if f.windowN > 0 {
		f.lanes = append(f.lanes, lane{ring: acoustic.NewCaptureRing(m, f.windowN)})
	}
	f.quarMu.Lock()
	f.quarantined = append(f.quarantined, false)
	f.activeDirty = true
	f.quarMu.Unlock()
}

// SetQuarantined drops microphone i from (or readmits it to) the
// fan-out. Safe from any goroutine; a flip during an in-flight window
// takes effect at the next Analyse. Quarantined microphones are not
// captured by the fleet, so an out-of-band prober may capture them.
func (f *Fleet) SetQuarantined(i int, q bool) {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	if i < 0 || i >= len(f.quarantined) {
		panic("core: Fleet.SetQuarantined index out of range")
	}
	if f.quarantined[i] != q {
		f.quarantined[i] = q
		f.activeDirty = true
	}
}

// syncActive rebuilds the active-microphone index snapshot when the
// quarantine set moved. Called at fan-out, before workers read it. A
// quarantined lane's ring is emptied, so on rejoin it re-primes from
// the live edge rather than splicing in pre-quarantine samples.
func (f *Fleet) syncActive() {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	if !f.activeDirty && f.active != nil {
		return
	}
	f.active = f.active[:0]
	for i, q := range f.quarantined {
		if !q {
			f.active = append(f.active, i)
		} else if f.lanes != nil {
			f.lanes[i].ring.Reset()
		}
	}
	f.activeDirty = false
}

// setHop parameterises the fleet by its hop: windows of window seconds
// (windowN samples) advancing by hopN samples; all zero is the batch
// path. At hopN < windowN every microphone gets a fresh lane; at
// hopN == windowN each window is captured whole, the batch code path.
func (f *Fleet) setHop(window float64, windowN, hopN int) {
	f.streamWindow, f.windowN, f.lanes = window, 0, nil
	if hopN < windowN {
		f.windowN = windowN
		for _, m := range f.mics {
			f.lanes = append(f.lanes, lane{ring: acoustic.NewCaptureRing(m, windowN)})
		}
	}
}

// watch returns the watch list the last window ran under: the worker
// clones' shared snapshot. Valid on the driving goroutine once a window
// has been analysed.
func (f *Fleet) watch() []float64 { return f.dets[0].watch }

// Instrument registers the fleet's telemetry: a histogram of
// per-window fan-out wall time (capture + detect across all
// microphones, hand-off included) and the stale-window count.
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	f.window = reg.Histogram(metricFleetWindow, telemetry.DefaultLatencyBuckets)
	f.stale = reg.Counter(metricFleetStale)
	f.wall = telemetry.Wall()
}

// Analyse captures and analyses [from, to) on every microphone,
// fanning the work across the pool, and returns the merged detections
// ordered by (time, frequency). The returned slice is scratch owned
// by the fleet, valid until the next Analyse call — the same contract
// as Detector.Detect. Steady-state calls allocate nothing.
func (f *Fleet) Analyse(from, to float64) []Detection {
	dets, _, _ := f.analyse(from, to)
	return dets
}

// analyse runs one window over every active microphone. [from, to) is
// the captured span: the whole window, or with lanes the newest hop of
// the window ending at to. ok is false when no active microphone holds
// a full window; err is a lane's append failure (see settleLanes).
func (f *Fleet) analyse(from, to float64) (dets []Detection, ok bool, err error) {
	if len(f.mics) == 0 {
		return nil, false, nil
	}
	f.syncActive()
	if len(f.active) == 0 {
		return nil, false, nil
	}
	sp := telemetry.StartSpan(f.window, f.wall)
	f.from, f.to, f.winStart = from, to, from
	if f.lanes != nil {
		f.winStart = to - f.streamWindow
	}
	for attempt := 0; ; attempt++ {
		// Snapshot the watch revision the whole window will run under.
		// Watch edits are serialized through the template's mutex, so a
		// stable revision across fan-out and merge proves every clone
		// analysed the same list the merge publishes.
		rev := f.template.WatchRev()
		f.syncClones(rev)
		f.reserve()
		// Lanes append the hop once; a stale-watch retry re-analyses the
		// windows they already hold.
		f.appendHop = attempt == 0
		helpers := f.workers > 1 && !f.stop.Load()
		switch {
		case helpers && f.prepareSplit():
			f.fanOut(len(f.active) * (f.bands + f.passes))
			f.finishSplit()
		case helpers && len(f.active) > 1:
			f.fanOut(len(f.active))
		default:
			// Serial reference path: same per-microphone work, same merge.
			for _, i := range f.active {
				f.analyseMic(0, i)
			}
		}
		if f.template.WatchRev() == rev || attempt >= staleRetries {
			break
		}
		// The watch list moved under the window: per-microphone slots
		// may mix old- and new-list results. Count it and re-run.
		f.StaleWindows++
		f.stale.Inc()
	}
	ok = true
	if f.lanes != nil {
		if ok, err = f.settleLanes(); err != nil {
			sp.End()
			return nil, false, err
		}
	}
	f.merged = f.merged[:0]
	for _, i := range f.active {
		f.merged = append(f.merged, f.out[i]...)
	}
	if len(f.mics) > 1 || f.streamWindow > 0 {
		sortDetections(f.merged, f.sortTmp)
	}
	sp.End()
	if len(f.merged) == 0 {
		return nil, ok, nil
	}
	return f.merged, ok, nil
}

// settleLanes reports whether any active lane holds a full window
// after the hop. A failed append instead resets every lane and returns
// the first active lane's error.
func (f *Fleet) settleLanes() (bool, error) {
	full := false
	for _, i := range f.active {
		if err := f.lanes[i].err; err != nil {
			for j := range f.lanes {
				f.lanes[j].ring.Reset()
				f.lanes[j].err = nil
			}
			return false, err
		}
		full = full || f.lanes[i].ring.Full()
	}
	return full, nil
}

// Close stops the helper goroutines and returns once they have exited.
// The fleet stays usable on the serial path after Close. Idle helpers
// exit on their own, so Close matters only to a caller that must see
// every goroutine gone at once, such as a benchmark building a fleet
// per iteration.
func (f *Fleet) Close() {
	f.stop.Store(true)
	f.exited.Wait()
}

// syncClones brings the per-worker detectors in line with the live
// template: scalar thresholds are copied every window (they are four
// assignments), the watch list only when its revision moved. rev is
// the template revision snapshot the caller runs the window under.
func (f *Fleet) syncClones(rev uint64) {
	stale := len(f.dets) != f.workers || f.cloneRev != rev
	if stale {
		f.cloneRev = rev
		f.dets = f.dets[:0]
		for w := 0; w < f.workers; w++ {
			f.dets = append(f.dets, f.template.Clone())
		}
		for len(f.bufs) < f.workers {
			f.bufs = append(f.bufs, nil)
		}
	}
	for _, d := range f.dets {
		d.Method = f.template.Method
		d.MinAmplitude = f.template.MinAmplitude
		d.ToleranceHz = f.template.ToleranceHz
		d.RelativeFloor = f.template.RelativeFloor
	}
}

// reserve grows the merge-path slices to their hard bound: a detector
// yields at most one detection per watched frequency, so one window
// produces at most mics × watch detections. Reserving that up front
// (re-checked per window, so watch-list growth is covered) means
// per-window detection-count wobble — self-noise flips borderline
// amplitudes across the threshold — never triggers a mid-flight
// growslice, keeping the steady state allocation-free.
func (f *Fleet) reserve() {
	per := f.template.WatchLen()
	bound := per * len(f.mics)
	if cap(f.merged) < bound {
		f.merged = make([]Detection, 0, bound)
	}
	if cap(f.sortTmp) < bound {
		f.sortTmp = make([]Detection, bound)
	}
	for i := range f.out {
		if cap(f.out[i]) < per {
			f.out[i] = make([]Detection, 0, per)
		}
		if cap(f.amps[i]) < per {
			f.amps[i] = make([]float64, 0, per)
		}
	}
}

// fanOut hands the window's items to the helpers and claims items
// with them until all n are done.
func (f *Fleet) fanOut(n int) {
	f.publish(n)
	f.claim(0)
	for f.done.Load() < int64(n) {
		runtime.Gosched()
	}
}

// publish hands the n items of the window set up in the fleet's fields
// to the helpers: it resets the done count, opens the claim word over
// the items, bumps the generation and starts every helper that is not
// running.
func (f *Fleet) publish(n int) {
	f.done.Store(0)
	f.claimWord.Store(uint64(n) << 32)
	f.gen.Add(1)
	for w := 1; w < f.workers; w++ {
		if f.alive[w].CompareAndSwap(false, true) {
			f.exited.Add(1)
			go f.helper(w)
		}
	}
}

// claim runs items with worker w's scratch until the claim word runs
// out: microphones, or the items of a split window. An add past the
// window's count claims nothing, so a helper arriving late, even from
// an earlier window, never touches a window it was not handed; a claim
// in range happens after publish set the window up, and the caller
// changes nothing until done reaches the count.
func (f *Fleet) claim(w int) {
	for {
		c := f.claimWord.Add(1)
		k, n := uint32(c)-1, uint32(c>>32)
		if k >= n {
			return
		}
		if f.passes > 0 {
			f.splitItem(int(k))
		} else {
			f.analyseMic(w, f.active[k])
		}
		f.done.Add(1)
	}
}

// helper is worker w >= 1: it joins the window published when it
// starts and each one after, yielding for spinBudget between them. A
// helper idle for longer exits, and publish starts it again.
func (f *Fleet) helper(w int) {
	defer f.exited.Done()
	for {
		seen := f.gen.Load()
		f.claim(w)
		for idle := time.Now(); f.gen.Load() == seen; runtime.Gosched() {
			if f.stop.Load() {
				return
			}
			if time.Since(idle) < spinBudget {
				continue
			}
			f.alive[w].Store(false)
			// A window published since the check above may have seen this
			// helper alive: stay for it, unless publish started another.
			if f.gen.Load() == seen || !f.alive[w].CompareAndSwap(false, true) {
				return
			}
		}
	}
}

// prepareSplit decides whether the window is split: it has fewer
// active microphones than workers, and its Goertzel bank runs at least
// two passes (dsp.GoertzelPlan.Passes). If so, it runs each active
// microphone's serial step — the mix of a batch window, or the appended
// hop of a streamed one — and sets the window's items up: per
// microphone, the batch window's self-noise in one band of samples per
// worker, then one item per bank pass. Split items write disjoint
// samples and magnitudes, so the window is bit-identical to one
// analysed whole.
func (f *Fleet) prepareSplit() bool {
	f.passes = 0
	lead := f.dets[0]
	if len(f.active) >= f.workers || lead.Method != MethodGoertzel || len(lead.watch) == 0 {
		return false
	}
	passes := lead.goertzelPlan(f.mics[f.active[0]].Room().SampleRate).Passes()
	if passes < 2 {
		return false
	}
	f.bands = 0
	if f.lanes == nil {
		f.bands = f.workers
	}
	for a, i := range f.active {
		f.out[i], f.amps[i] = f.out[i][:0], f.amps[i][:0]
		var buf *audio.Buffer
		if f.lanes == nil {
			f.bufs[a] = f.mics[i].MixInto(f.bufs[a], f.from, f.to)
			buf = f.bufs[a]
		} else {
			buf = f.capture(a, i)
		}
		f.views[a] = nil
		if buf == nil || buf.Len() == 0 {
			continue
		}
		f.views[a] = buf
		d := f.dets[a]
		d.goertzelPlan(buf.SampleRate)
		if cap(d.amps) < len(d.watch) {
			d.amps = make([]float64, len(d.watch))
		}
		d.amps = d.amps[:len(d.watch)]
	}
	f.passes = passes
	return true
}

// splitItem runs item k of a split window: the self-noise of one
// sample band, or one pass of one microphone's bank.
func (f *Fleet) splitItem(k int) {
	noise := len(f.active) * f.bands
	if k < noise {
		a, b := k/f.bands, k%f.bands
		if buf := f.views[a]; buf != nil {
			n := buf.Len()
			f.mics[f.active[a]].AddSelfNoise(buf, f.from, b*n/f.bands, (b+1)*n/f.bands)
		}
		return
	}
	// The bank reads the finished window. Every noise item was claimed
	// before this one, so the wait is for bands already being added.
	for f.done.Load() < int64(noise) {
		runtime.Gosched()
	}
	a, p := (k-noise)/f.passes, (k-noise)%f.passes
	if buf := f.views[a]; buf != nil {
		d := f.dets[a]
		d.gplan.PassInto(d.amps, buf.Samples, p)
	}
}

// finishSplit turns each microphone's bank magnitudes into its
// detections and amplitudes, as analyseMic does after a whole window.
func (f *Fleet) finishSplit() {
	for a, i := range f.active {
		buf := f.views[a]
		if buf == nil {
			continue
		}
		d := f.dets[a]
		amps := d.scaleGoertzel(buf.Len())
		minAmp := f.minAmplitude(d, i)
		f.keep(i, d.threshold(amps, f.winStart, minAmp), amps)
	}
}

// analyseMic analyses one microphone's window with worker w's scratch
// and stores the detections and amplitudes in the microphone's result
// slots. With a device monitor attached, the detection threshold is
// the monitor's recalibrated per-microphone floor and the amplitude
// estimates feed its noise tracker (stored per microphone, folded once
// the window is done).
func (f *Fleet) analyseMic(w, i int) {
	f.out[i], f.amps[i] = f.out[i][:0], f.amps[i][:0]
	buf := f.capture(w, i)
	if buf == nil {
		return
	}
	d := f.dets[w]
	dets, amps := d.DetectCalibrated(buf, f.winStart, f.minAmplitude(d, i))
	f.keep(i, dets, amps)
}

// minAmplitude is microphone i's detection threshold: detector d's, or
// with a device monitor attached the monitor's recalibrated floor.
func (f *Fleet) minAmplitude(d *Detector, i int) float64 {
	if f.mon != nil {
		return f.mon.floorFor(i, d.MinAmplitude)
	}
	return d.MinAmplitude
}

// keep stores microphone i's detections and amplitudes in its result
// slots, and feeds them to the device monitor when one is attached.
func (f *Fleet) keep(i int, dets []Detection, amps []float64) {
	if f.mon != nil {
		f.mon.ObserveMic(i, f.winStart, dets, amps)
	}
	f.out[i] = append(f.out[i], dets...)
	f.amps[i] = append(f.amps[i], amps...)
}

// capture returns microphone i's window for worker w: captured whole
// into the worker's buffer without lanes, or the lane's ring after the
// hop is appended. It returns nil while the ring is still priming or
// when the append failed.
func (f *Fleet) capture(w, i int) *audio.Buffer {
	if f.lanes == nil {
		f.bufs[w] = f.mics[i].CaptureInto(f.bufs[w], f.from, f.to)
		return f.bufs[w]
	}
	l := &f.lanes[i]
	if f.appendHop {
		if l.err = l.ring.Append(f.from, f.to); l.err != nil {
			return nil
		}
	}
	if !l.ring.Full() {
		return nil
	}
	return l.ring.Window()
}

// sortDetections orders detections by (Time, Frequency), stable: exact
// ties keep their arrival order, which Analyse arranges to be
// microphone registration order. It is a bottom-up merge sort over
// caller-provided scratch (len(tmp) >= len(s)) — allocation-free, and
// O(n log n) where the previous insertion sort went quadratic once
// every microphone heard every voice (a 256-voice fleet merges ~65k
// detections per window).
func sortDetections(s, tmp []Detection) {
	n := len(s)
	const run = 32
	for lo := 0; lo < n; lo += run {
		hi := lo + run
		if hi > n {
			hi = n
		}
		insertionSortDetections(s[lo:hi])
	}
	tmp = tmp[:len(s)]
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			mergeDetections(tmp[lo:hi], s[lo:mid], s[mid:hi])
			copy(s[lo:hi], tmp[lo:hi])
		}
	}
}

func insertionSortDetections(s []Detection) {
	for i := 1; i < len(s); i++ {
		d := s[i]
		j := i - 1
		for j >= 0 && detLess(d, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = d
	}
}

// mergeDetections merges two sorted runs into dst, taking from a on
// ties — the stability guarantee.
func mergeDetections(dst, a, b []Detection) {
	i, j := 0, 0
	for k := range dst {
		if i < len(a) && (j >= len(b) || !detLess(b[j], a[i])) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

func detLess(a, b Detection) bool {
	return a.Time < b.Time || (a.Time == b.Time && a.Frequency < b.Frequency)
}
