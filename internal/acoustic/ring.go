package acoustic

import (
	"errors"
	"fmt"
	"math"

	"mdn/internal/audio"
)

// ErrCompacted reports a capture request for samples older than the
// room's compaction horizon: CompactBefore has dropped emissions that
// would have sounded in the requested span, so rendering it would
// silently mix silence where tones used to be. Readers that look back
// in time — the streaming ring, out-of-band AnalyseOnce re-captures —
// must treat the window as unavailable, not quiet.
var ErrCompacted = errors.New("acoustic: capture window precedes compaction horizon")

// CaptureChecked is CaptureInto for readers that may look back in
// time: it returns ErrCompacted (wrapped, with the requested window
// and horizon) instead of rendering when any part of [from, to)
// precedes the room's compaction horizon. On success out is filled and
// returned exactly as CaptureInto would. The hot window loop, which
// always reads at the live edge, keeps using CaptureInto; everything
// that re-captures history goes through here.
func (m *Microphone) CaptureChecked(out *audio.Buffer, from, to float64) (*audio.Buffer, error) {
	if h := m.room.CompactionHorizon(); from < h {
		return out, fmt.Errorf("%w: window [%g, %g) vs horizon %g", ErrCompacted, from, to, h)
	}
	return m.CaptureInto(out, from, to), nil
}

// CompactionHorizon returns the latest time passed to CompactBefore —
// captures of windows starting before it may be missing dropped
// emissions. Zero (more precisely -Inf semantics, reported as 0 for an
// uncompacted room) means the full history is intact.
func (r *Room) CompactionHorizon() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.horizon
}

// CaptureRing is a microphone's incremental capture window: a sample
// ring holding the last windowN samples, appended one hop at a time.
// Each Append renders only the new [from, to) span — the rest of the
// window is the saved overlap from earlier hops — so advancing a
// 50 ms window by a 12.5 ms hop costs one quarter of a window mix,
// not a full re-mix. The fleet's stream lanes read whole windows out
// with Window.
//
// A CaptureRing is owned by one stream: like the microphone it wraps,
// it must not be used from two goroutines at once.
type CaptureRing struct {
	mic     *Microphone
	samples []float64 // capacity windowN, write index w
	w       int
	filled  int

	hop *audio.Buffer // reused hop capture scratch
	win *audio.Buffer // reused linearized window
}

// NewCaptureRing builds a ring of windowN samples over mic.
func NewCaptureRing(mic *Microphone, windowN int) *CaptureRing {
	if windowN <= 0 {
		panic("acoustic: CaptureRing requires a positive window")
	}
	return &CaptureRing{
		mic:     mic,
		samples: make([]float64, windowN),
		win:     &audio.Buffer{SampleRate: mic.room.SampleRate, Samples: make([]float64, windowN)},
	}
}

// Append captures [from, to) from the microphone and pushes it into
// the ring, discarding the oldest samples. It returns ErrCompacted
// (via CaptureChecked) when the span has been compacted away, leaving
// the ring unchanged. Steady-state appends allocate nothing.
func (c *CaptureRing) Append(from, to float64) error {
	buf, err := c.mic.CaptureChecked(c.hop, from, to)
	c.hop = buf
	if err != nil {
		return err
	}
	src := buf.Samples
	n := len(c.samples)
	if len(src) > n {
		src = src[len(src)-n:]
	}
	for _, x := range src {
		c.samples[c.w] = x
		c.w++
		if c.w == n {
			c.w = 0
		}
	}
	c.filled += len(src)
	if c.filled > n {
		c.filled = n
	}
	return nil
}

// Full reports whether a complete window has been appended.
func (c *CaptureRing) Full() bool { return c.filled == len(c.samples) }

// Window returns the current window, oldest sample first, as a buffer
// owned by the ring — valid until the next Append. It is only
// meaningful once Full, and allocates nothing.
func (c *CaptureRing) Window() *audio.Buffer {
	n := copy(c.win.Samples, c.samples[c.w:])
	copy(c.win.Samples[n:], c.samples[:c.w])
	return c.win
}

// LastHop returns the samples of the most recent successful Append,
// oldest first, backed by scratch owned by the ring — valid until the
// next Append.
func (c *CaptureRing) LastHop() []float64 {
	if c.hop == nil {
		return nil
	}
	return c.hop.Samples
}

// Reset empties the ring so the next Append starts a fresh window —
// used when a capture error (ErrCompacted) leaves a hole that must not
// be analysed over.
func (c *CaptureRing) Reset() {
	c.w = 0
	c.filled = 0
}

// LatestArrivalBefore returns the arrival time at m of the emission
// within tol Hz of freq whose sound most recently reached m at or
// before time t, and whether one exists. It is the ground-truth lookup
// behind the streaming path's sound-to-detection latency histogram:
// when an onset for freq fires at time t, the matching emission's
// arrival bounds how long the sound was in the air plus the analysis
// pipeline before the controller reacted. It allocates nothing.
func (m *Microphone) LatestArrivalBefore(freq, tol, t float64) (float64, bool) {
	r := m.room
	r.mu.RLock()
	defer r.mu.RUnlock()
	best := math.Inf(-1)
	found := false
	idx := m.idx
	// Emissions are sorted by start time and arrive no earlier than
	// they start, so everything from the first At > t onward is
	// irrelevant. Walking backward, once an emission starts more than
	// the worst-case pair delay before the best arrival found so far,
	// no earlier emission can arrive later — stop.
	for i := len(r.emissions) - 1; i >= 0; i-- {
		e := &r.emissions[i]
		if e.At > t {
			continue
		}
		if found && e.At+r.maxPairDelay < best {
			break
		}
		if math.Abs(e.Tone.Frequency-freq) > tol {
			continue
		}
		if idx >= len(e.sp.pairs) {
			continue
		}
		arrive := e.At + e.sp.pairs[idx].del
		if arrive <= t && arrive > best {
			best = arrive
			found = true
		}
	}
	return best, found
}
