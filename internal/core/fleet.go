package core

import (
	"sync"

	"mdn/internal/acoustic"
	"mdn/internal/audio"
	"mdn/internal/parallel"
	"mdn/internal/telemetry"
)

// Fleet is the controller's one detection pipeline, batch or streamed
// (a lone microphone is a fleet of one): one analysis window fanned out
// over N microphones on a fixed pool of workers, each worker running
// its own Detector clone. The paper's deployments are fleets — many
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
// runs after the barrier, ordering detections by (time, frequency)
// with microphone registration order breaking exact ties — so
// subscriber semantics are identical to a serial multi-microphone
// loop. A lone microphone on the batch path keeps the detector's
// watch-list order, as a bare Detector would.
//
// A Fleet is driven from one goroutine (the simulation loop):
// AddMicrophone and Analyse must not race each other. The concurrency
// is inside Analyse, between its workers.
type Fleet struct {
	template *Detector
	workers  int

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
	// window. Shard boundaries are a pure function of the ACTIVE
	// microphone count, so the merge stays byte-identical at any worker
	// count for a given quarantine set.
	quarMu      sync.Mutex
	quarantined []bool
	active      []int
	activeDirty bool

	// Captured span and analysed window start of the in-flight fan-out;
	// written before tasks are sent, read by workers after receiving one
	// (the channel send is the happens-before edge).
	from, to, winStart float64

	tasks   chan micShard
	wg      sync.WaitGroup
	started bool
	closed  bool

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

	busy   *telemetry.Gauge
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

// NewFleet builds a fleet cloning template for each of workers pool
// slots (workers <= 0 means GOMAXPROCS). The template stays live:
// watch-list additions and threshold changes made to it (for example
// through Controller.Detector) are picked up at the next Analyse.
func NewFleet(template *Detector, workers int) *Fleet {
	if template == nil {
		panic("core: NewFleet requires a detector template")
	}
	return &Fleet{template: template, workers: parallel.Workers(workers)}
}

// Workers returns the pool size.
func (f *Fleet) Workers() int { return f.workers }

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
// captured by the fleet, so an out-of-band prober may capture them
// without violating the single-capturer contract.
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

// IsQuarantined reports whether microphone i is out of the fan-out.
func (f *Fleet) IsQuarantined(i int) bool {
	f.quarMu.Lock()
	defer f.quarMu.Unlock()
	return i >= 0 && i < len(f.quarantined) && f.quarantined[i]
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

// Instrument registers the fleet's telemetry: a gauge of workers
// currently busy and a histogram of per-window fan-out wall time
// (capture + detect across all microphones, barrier included).
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	f.busy = reg.Gauge(metricFleetBusy)
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
		if f.workers == 1 || len(f.active) == 1 || f.closed {
			// Serial reference path: same per-microphone work, same merge.
			for _, i := range f.active {
				f.analyseMic(0, i)
			}
		} else {
			f.start()
			shards := f.shards()
			f.wg.Add(shards)
			m := len(f.active)
			base, ext := m/shards, m%shards
			lo := 0
			for s := 0; s < shards; s++ {
				hi := lo + base
				if s < ext {
					hi++
				}
				f.tasks <- micShard{lo, hi}
				lo = hi
			}
			f.wg.Wait()
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

// Close stops the worker goroutines. The fleet stays usable on the
// serial path after Close; call it when tearing a fleet down so pools
// built per benchmark iteration or per test do not leak goroutines.
func (f *Fleet) Close() {
	if f.started {
		close(f.tasks)
		f.started = false
	}
	f.closed = true
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

// start launches the worker pool on first parallel use.
func (f *Fleet) start() {
	if f.started {
		return
	}
	f.tasks = make(chan micShard)
	for w := 0; w < f.workers; w++ {
		go f.worker(w)
	}
	f.started = true
}

// micShard is one contiguous run [lo, hi) of ACTIVE-list positions —
// the unit of parallel fan-out. Sharding microphones instead of
// sending them one at a time amortises channel traffic at fleet scale:
// a 1024-microphone window is ~4×workers sends rather than 1024, while
// each worker still iterates only the audible sets of its shard's
// microphones (the per-microphone culled capture).
type micShard struct{ lo, hi int }

// shards returns the fan-out granularity: several contiguous shards
// per worker so an unlucky shard of loud microphones cannot straggle
// the window, capped at one shard per active microphone. Shard
// boundaries are a pure function of the active count, never the pool
// size's scheduling luck; workers write per-microphone result slots,
// so the merged output is identical at any worker count.
func (f *Fleet) shards() int {
	n := 4 * f.workers
	if n > len(f.active) {
		n = len(f.active)
	}
	return n
}

// worker processes microphone shards until the task channel closes.
// Worker w owns dets[w] and bufs[w]; distinct shards cover disjoint
// out[i] slots, so the only synchronisation needed is the WaitGroup.
func (f *Fleet) worker(w int) {
	for sh := range f.tasks {
		f.busy.Add(1)
		for k := sh.lo; k < sh.hi; k++ {
			f.analyseMic(w, f.active[k])
		}
		f.busy.Add(-1)
		f.wg.Done()
	}
}

// analyseMic analyses one microphone's window with worker w's scratch
// and stores the detections and amplitudes in the microphone's result
// slots. With a
// device monitor attached, the detection threshold is the monitor's
// recalibrated per-microphone floor and the amplitude estimates feed
// its noise tracker (stored per microphone, folded after the barrier).
func (f *Fleet) analyseMic(w, i int) {
	f.out[i], f.amps[i] = f.out[i][:0], f.amps[i][:0]
	buf := f.capture(w, i)
	if buf == nil {
		return
	}
	d := f.dets[w]
	minAmp := d.MinAmplitude
	if f.mon != nil {
		minAmp = f.mon.floorFor(i, minAmp)
	}
	dets, amps := d.DetectCalibrated(buf, f.winStart, minAmp)
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
