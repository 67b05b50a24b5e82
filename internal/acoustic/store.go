package acoustic

import (
	"math"
	"sort"

	"mdn/internal/telemetry"
)

// This file is the emission store behind Room: the time/space indexing
// that lets a microphone render its window against the emissions that
// are *audible at that microphone*, instead of re-walking the whole
// schedule.
//
// Three structures cooperate:
//
//   - The emission slice itself, kept in the emissionLess total order
//     by Play (time index). Capture binary-searches the At >= to
//     boundary, so nothing scheduled after the window is visited.
//   - endMax, a prefix-max of each emission's latest possible end
//     (At + Duration, with the room-wide worst-case propagation delay
//     added at query time). It is nondecreasing by construction, so
//     one more binary search bounds the *live* region from below:
//     every emission before the bound has finished sounding at every
//     microphone and is skipped without iteration. CompactBefore uses
//     the same bound to drop dead history outright.
//   - Per-(speaker, microphone) geometry (pairGeom), precomputed at
//     registration and extended by AddSpeaker/AddMicrophone, so the
//     capture inner loop resolves distance attenuation, propagation
//     delay and the audibility test with one slice index — no
//     square root per (emission, microphone).
//
// Audibility culling itself is the CullThreshold knob on Room: an
// emission whose received peak amplitude at the capturing microphone
// is below the floor cannot change a detection and is skipped before
// synthesis. Equivalently, each speaker has an audibility radius
// around it per microphone floor — amplitude/attenuation(dist) falls
// below the floor outside it — but the comparison form costs one
// multiply and needs no per-frequency radius table even when air
// absorption is enabled.

// CullAuto, assigned to Room.CullThreshold, enables audibility
// culling with each microphone's own SelfNoiseRMS as its floor: a
// tone received below the microphone's electronics noise is culled.
const CullAuto = -1.0

// pairGeom is the precomputed geometry of one (speaker, microphone)
// pair, indexed by Microphone registration order in Speaker.pairs.
// Positions are fixed at registration (there is no move API), so the
// cache is built by AddSpeaker/AddMicrophone and never invalidated
// except by further Add* calls extending it.
type pairGeom struct {
	dist float64 // speaker→microphone distance, metres (unclamped)
	att  float64 // attenuation(dist): 1/r with the near-field clamp
	del  float64 // delay(dist): propagation seconds
}

func makePair(sp, mic Position) pairGeom {
	d := sp.Distance(mic)
	return pairGeom{dist: d, att: attenuation(d), del: delay(d)}
}

// cullFloorAt resolves the effective audibility floor for one
// microphone at time t: 0 means culling is off (bit-exact legacy full
// walk), CullAuto (any negative value) uses the microphone's own noise
// floor — the *effective* floor under the degradation model, so a
// noise-ramped microphone's cull floor recalibrates with it — and a
// positive CullThreshold is an explicit shared floor. The caller holds
// r.mu (read side is enough).
func (r *Room) cullFloorAt(m *Microphone, t float64) float64 {
	th := r.CullThreshold
	if th < 0 {
		return m.noiseAt(t)
	}
	return th
}

// insertEmission places e at its total-order position and maintains
// the endMax prefix-max index. The caller holds r.mu. The common case
// — simulations schedule forward in time — is a pair of appends.
func (r *Room) insertEmission(e emission) {
	n := len(r.emissions)
	end := e.At + e.Tone.Duration
	if n == 0 || !emissionLess(&e, &r.emissions[n-1]) {
		r.emissions = append(r.emissions, e)
		if n > 0 && r.endMax[n-1] > end {
			end = r.endMax[n-1]
		}
		r.endMax = append(r.endMax, end)
		return
	}
	// Out-of-order schedule: insert at the total-order position and
	// rebuild the prefix max from there (same O(n-i) as the copy).
	i := sort.Search(n, func(k int) bool { return emissionLess(&e, &r.emissions[k]) })
	r.emissions = append(r.emissions, emission{})
	copy(r.emissions[i+1:], r.emissions[i:])
	r.emissions[i] = e
	r.endMax = append(r.endMax, 0)
	r.recomputeEndMax(i)
}

// recomputeEndMax rebuilds the prefix-max index from position i on.
// The caller holds r.mu.
func (r *Room) recomputeEndMax(i int) {
	prev := math.Inf(-1)
	if i > 0 {
		prev = r.endMax[i-1]
	}
	for ; i < len(r.emissions); i++ {
		end := r.emissions[i].At + r.emissions[i].Tone.Duration
		if end < prev {
			end = prev
		}
		r.endMax[i] = end
		prev = end
	}
}

// liveFrom returns the index of the first emission that could still be
// audible at or after time t at any registered microphone; everything
// before it has finished sounding everywhere. The caller holds r.mu
// (read side is enough). limit caps the search to an already-known
// upper bound (e.g. the At >= to cut of a capture window).
func (r *Room) liveFrom(t float64, limit int) int {
	endMax := r.endMax[:limit]
	margin := r.maxPairDelay
	return sort.Search(limit, func(i int) bool { return endMax[i]+margin > t })
}

// CompactBefore drops every emission that can no longer be heard at
// any time >= t by any registered microphone — those whose start plus
// duration plus the worst-case speaker→microphone propagation delay
// precedes t. Captures of windows at or after t are unchanged,
// including windows an emission straddles; captures of windows before
// t lose the dropped history. The controller's window loop calls this
// (see core.Controller.Retention) so long-running deployments hold
// memory proportional to the audible horizon, not the whole schedule.
// It returns the number of emissions dropped.
func (r *Room) CompactBefore(t float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t > r.horizon {
		r.horizon = t
	}
	n := r.liveFrom(t, len(r.emissions))
	if n == 0 {
		return 0
	}
	kept := copy(r.emissions, r.emissions[n:])
	// Clear the vacated tail so dropped emissions do not pin Speaker
	// references past their audible life.
	for i := kept; i < len(r.emissions); i++ {
		r.emissions[i] = emission{}
	}
	r.emissions = r.emissions[:kept]
	r.endMax = r.endMax[:kept]
	r.recomputeEndMax(0)
	r.tm.compacted.Add(uint64(n))
	return n
}

// EmissionCount returns the number of emissions currently held by the
// store (scheduled minus compacted).
func (r *Room) EmissionCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.emissions)
}

// Room returns the room the microphone is registered in.
func (m *Microphone) Room() *Room { return m.room }

// Capture-path metric names. Counters accumulate across all
// microphones of the room; the histogram records per-capture scanned
// counts, so the cull rate (culled/scanned) and the per-window scan
// load are both observable.
//
//	mdn_capture_emissions_scanned_total  emissions visited by capture scans
//	mdn_capture_emissions_mixed_total    emissions synthesized into windows
//	mdn_capture_emissions_culled_total   emissions skipped as inaudible
//	mdn_capture_scan_emissions           per-capture scanned-count histogram
//	mdn_room_emissions                   emissions currently stored (gauge)
//	mdn_room_emissions_compacted_total   emissions dropped by CompactBefore
const (
	metricCaptureScanned  = "mdn_capture_emissions_scanned_total"
	metricCaptureMixed    = "mdn_capture_emissions_mixed_total"
	metricCaptureCulled   = "mdn_capture_emissions_culled_total"
	metricCaptureScanHist = "mdn_capture_scan_emissions"
	metricRoomEmissions   = "mdn_room_emissions"
	metricRoomCompacted   = "mdn_room_emissions_compacted_total"
)

// captureScanBuckets spans one emission to a million-voice schedule.
var captureScanBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
}

// roomMetrics is the room's telemetry handle set; all fields are nil
// until Instrument is called and every update is nil-safe, so an
// uninstrumented room pays one pointer test per capture.
type roomMetrics struct {
	scanned   *telemetry.Counter
	mixed     *telemetry.Counter
	culled    *telemetry.Counter
	scanHist  *telemetry.Histogram
	compacted *telemetry.Counter
}

// Instrument registers the room's capture-path telemetry with reg:
// scanned/mixed/culled emission counters, the per-capture scan
// histogram, a gauge of currently stored emissions, and the
// compaction counter. Call it once per room, before captures begin. A
// nil registry leaves the room unmetered.
func (r *Room) Instrument(reg *telemetry.Registry) {
	r.tm = roomMetrics{
		scanned:   reg.Counter(metricCaptureScanned),
		mixed:     reg.Counter(metricCaptureMixed),
		culled:    reg.Counter(metricCaptureCulled),
		scanHist:  reg.Histogram(metricCaptureScanHist, captureScanBuckets),
		compacted: reg.Counter(metricRoomCompacted),
	}
	reg.Func(metricRoomEmissions, func() float64 {
		return float64(r.EmissionCount())
	})
}
