package scenario

import (
	"fmt"
	"math"
	"net/netip"
	"strings"
	"time"

	"mdn/internal/core"
	"mdn/internal/netsim"
	"mdn/internal/sketch"
	"mdn/internal/telemetry"
)

// TrafficSweepConfig parameterises the exact-vs-sketch analytics sweep
// over flow-count scales. Each point drives a Zipf flow population
// through the pooled traffic engine and measures, on the identical
// packet stream, the exact oracle against the sketch stack (count-min
// + HyperLogLog + space-saving top-k): heavy-hitter recall, distinct
// error, and bytes of analytics state.
type TrafficSweepConfig struct {
	// Seed drives every stochastic component; per-point streams derive
	// from it and the grid position.
	Seed int64 `json:"seed"`
	// FlowCounts are the population sizes to sweep (default 10^4,
	// 10^5, 10^6).
	FlowCounts []int `json:"flow_counts,omitempty"`
	// Workers bounds the sweep's worker pool (<= 0 means GOMAXPROCS).
	// The report is byte-identical at every worker count.
	Workers int `json:"workers,omitempty"`
}

// The traffic sweep's fixed measurement parameters, written into every
// report header. The count-min overestimates exceed eps·packets with
// probability < delta; HyperLogLog precision 14 has ~0.8% standard
// error; a heavy hitter carries at least trafficHeavyFrac of all
// packets.
const (
	trafficDurationS = 1.0 // simulated emission window per point
	trafficEpsilon   = 1e-4
	trafficDelta     = 0.01
	trafficPrecision = 14
	trafficTopK      = 2048 // space-saving capacity
	trafficHeavyFrac = 0.001
)

// TrafficSweepPoint is one flow-count measurement. Every field is a
// deterministic function of the seed and the grid position — wall
// rates go to telemetry, not here — so reports diff clean across
// worker counts.
type TrafficSweepPoint struct {
	// Flows is the configured population; FlowsSeen is how many
	// distinct flows actually emitted (ground truth).
	Flows     int `json:"flows"`
	FlowsSeen int `json:"flows_seen"`
	// Packets is the packet count across the point; Events the
	// scheduler events dispatched.
	Packets uint64 `json:"packets"`
	Events  uint64 `json:"events"`
	// PoolRecycled/PoolAllocated split packet provenance: free list
	// hits versus fresh heap allocations (the in-flight high-water
	// mark).
	PoolRecycled  uint64 `json:"pool_recycled"`
	PoolAllocated uint64 `json:"pool_allocated"`

	// ExactBytes is the oracle's analytics state; SketchBytes the
	// sketch stack's; StateRatio their quotient.
	ExactBytes  int     `json:"exact_bytes"`
	SketchBytes int     `json:"sketch_bytes"`
	StateRatio  float64 `json:"state_ratio"`

	// Heavy-hitter accuracy at the HeavyFrac threshold.
	HeavyTrue    int     `json:"heavy_true"`
	HeavyFound   int     `json:"heavy_found"`
	HeavyMissed  int     `json:"heavy_missed"`
	FalseNegRate float64 `json:"false_neg_rate"`
	FalsePos     int     `json:"false_pos"`

	// Count-min estimate error over the true heavy set, relative to
	// each flow's true count.
	MeanRelErr float64 `json:"mean_rel_err"`
	MaxRelErr  float64 `json:"max_rel_err"`

	// Distinct-flow estimate (HyperLogLog) against the exact oracle.
	DistinctEst    int     `json:"distinct_est"`
	DistinctRelErr float64 `json:"distinct_rel_err"`
}

// TrafficSweepReport is a full analytics sweep.
type TrafficSweepReport struct {
	Seed      int64               `json:"seed"`
	DurationS float64             `json:"duration_s"`
	Epsilon   float64             `json:"epsilon"`
	Delta     float64             `json:"delta"`
	Precision int                 `json:"precision"`
	TopK      int                 `json:"top_k"`
	HeavyFrac float64             `json:"heavy_frac"`
	Points    []TrafficSweepPoint `json:"points"`
}

// RunTrafficSweep executes the flow-count axis as a 1 × N grid on the
// sweep runner. reg (optional) receives the sketch estimate-error
// histogram and the engine's wall-clock packets/sec and events/sec
// gauges; those live outside the report because wall time is not
// reproducible.
func RunTrafficSweep(cfg TrafficSweepConfig, reg *telemetry.Registry) (*TrafficSweepReport, error) {
	counts := cfg.FlowCounts
	if len(counts) == 0 {
		counts = []int{10_000, 100_000, 1_000_000}
	}
	for _, n := range counts {
		if n <= 0 {
			return nil, fmt.Errorf("scenario: traffic sweep flow count %d must be positive", n)
		}
	}
	var errHist *telemetry.Histogram
	if reg != nil {
		errHist = reg.Histogram(core.MetricSketchError, core.SketchErrorBuckets)
	}
	start := time.Now()
	pts, err := sweep(cfg.Seed, cfg.Workers, 1, len(counts), func(_, c int, seed int64, _ int) TrafficSweepPoint {
		return runTrafficPoint(counts[c], seed, errHist)
	})
	if err != nil {
		return nil, err
	}
	if reg != nil {
		var totalPackets, totalEvents uint64
		for _, pt := range pts {
			totalPackets += pt.Packets
			totalEvents += pt.Events
		}
		wall := time.Since(start).Seconds()
		if wall > 0 {
			reg.Gauge(core.MetricTrafficPPS).Set(float64(totalPackets) / wall)
			reg.Gauge(core.MetricTrafficEPS).Set(float64(totalEvents) / wall)
		}
	}
	return &TrafficSweepReport{
		Seed: cfg.Seed, DurationS: trafficDurationS, Epsilon: trafficEpsilon, Delta: trafficDelta,
		Precision: trafficPrecision, TopK: trafficTopK, HeavyFrac: trafficHeavyFrac,
		Points: pts,
	}, nil
}

// trafficFlowSpecs builds a Zipf flow population: flow rank r carries
// weight (r+1)^-1.1, floored at two packets per duration so every
// configured flow emits. The flow index is encoded in the source
// address (10.x.y.z) so the measurement tap recovers it without
// hashing the full five-tuple.
func trafficFlowSpecs(n int, dur float64) []netsim.FlowSpec {
	dst := netip.AddrFrom4([4]byte{10, 255, 255, 254})
	specs := make([]netsim.FlowSpec, n)
	// Zipf mass scaled so the skewed head carries ~2n packets on top
	// of the ~2n-packet floor.
	var mass float64
	for i := 0; i < n; i++ {
		mass += math.Pow(float64(i+1), -1.1)
	}
	scale := 2 * float64(n) / (mass * dur)
	floor := 2 / dur
	for i := 0; i < n; i++ {
		pps := scale * math.Pow(float64(i+1), -1.1)
		if pps < floor {
			pps = floor
		}
		specs[i] = netsim.FlowSpec{
			Flow: netsim.FiveTuple{
				Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
				Dst:     dst,
				SrcPort: uint16(1024 + i%60000),
				DstPort: 80,
				Proto:   netsim.ProtoUDP,
			},
			PPS:  pps,
			Size: 200,
		}
	}
	return specs
}

// flowKey recovers the flow index a trafficFlowSpecs entry encoded in
// the source address. It allocates nothing.
func flowKey(f *netsim.FiveTuple) uint64 {
	b := f.Src.As4()
	return uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// runTrafficPoint drives one flow population through the pooled engine
// with the exact oracle and the sketch stack tapping the same stream.
func runTrafficPoint(flows int, seed int64, errHist *telemetry.Histogram) TrafficSweepPoint {
	sim := netsim.NewSim()
	sim.EnablePacketPool()
	h1 := netsim.NewHost(sim, "h1", netsim.MustAddr("10.255.255.253"))
	h2 := netsim.NewHost(sim, "h2", netsim.MustAddr("10.255.255.254"))
	sw := netsim.NewSwitch(sim, "s1")
	netsim.Connect(sim, h1, 1, sw, 1, 1e12, 1e-6, 0)
	netsim.Connect(sim, sw, 2, h2, 1, 1e12, 1e-6, 0)
	sw.InstallRule(netsim.Rule{Match: netsim.Match{Dst: h2.Addr}, Action: netsim.Output(2)})

	exact := core.NewExactFlowCounter()
	cms, _ := sketch.NewCountMin(trafficEpsilon, trafficDelta, uint64(seed))
	cms.Conservative = true
	hll, _ := sketch.NewHyperLogLog(trafficPrecision, uint64(seed))
	tk, _ := sketch.NewTopK(trafficTopK)
	sw.Tap = func(pkt *netsim.Packet, _ int) {
		key := flowKey(&pkt.Flow)
		exact.Add(key, 1)
		cms.Update(key, 1)
		hll.Add(key)
		tk.Update(key, 1)
	}

	fs := netsim.StartFlowSet(sim, h1, netsim.FlowSetConfig{
		Specs: trafficFlowSpecs(flows, trafficDurationS),
		Start: 0, Stop: trafficDurationS, Seed: seed,
	})
	sim.RunUntil(trafficDurationS + 1)

	pt := TrafficSweepPoint{
		Flows:         flows,
		FlowsSeen:     exact.Keys(),
		Packets:       fs.Sent,
		Events:        sim.Events,
		PoolRecycled:  sim.PacketsPooled,
		PoolAllocated: sim.PacketsAllocated,
		ExactBytes:    exact.Bytes(),
		SketchBytes:   cms.Bytes() + hll.Bytes() + tk.Bytes(),
	}
	if pt.SketchBytes > 0 {
		pt.StateRatio = float64(pt.ExactBytes) / float64(pt.SketchBytes)
	}

	// Ground truth: flows at or above the heavy threshold.
	thresh := uint64(math.Ceil(trafficHeavyFrac * float64(pt.Packets)))
	if thresh == 0 {
		thresh = 1
	}
	trueHeavy := make(map[uint64]uint64)
	exact.Each(func(key, count uint64) {
		if count >= thresh {
			trueHeavy[key] = count
		}
	})
	pt.HeavyTrue = len(trueHeavy)

	// Sketch-side detection: top-k entries whose tracked count clears
	// the threshold.
	found := make(map[uint64]bool)
	for _, it := range tk.Items() {
		if it.Count >= thresh {
			found[it.Key] = true
			if _, ok := trueHeavy[it.Key]; !ok {
				pt.FalsePos++
			}
		}
	}
	pt.HeavyFound = len(found)
	var sumRel, maxRel float64
	for key, truth := range trueHeavy {
		if !found[key] {
			pt.HeavyMissed++
		}
		rel := (float64(cms.Estimate(key)) - float64(truth)) / float64(truth)
		sumRel += rel
		if rel > maxRel {
			maxRel = rel
		}
		if errHist != nil {
			errHist.Observe(rel)
		}
	}
	if pt.HeavyTrue > 0 {
		pt.FalseNegRate = float64(pt.HeavyMissed) / float64(pt.HeavyTrue)
		pt.MeanRelErr = sumRel / float64(pt.HeavyTrue)
		pt.MaxRelErr = maxRel
	}

	pt.DistinctEst = int(hll.Estimate() + 0.5)
	if pt.FlowsSeen > 0 {
		pt.DistinctRelErr = math.Abs(float64(pt.DistinctEst)-float64(pt.FlowsSeen)) / float64(pt.FlowsSeen)
	}
	return pt
}

// Table renders the sweep as a fixed-width comparison table.
func (r *TrafficSweepReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic analytics sweep: seed=%d eps=%g delta=%g p=%d k=%d heavy>=%.2f%%\n",
		r.Seed, r.Epsilon, r.Delta, r.Precision, r.TopK, 100*r.HeavyFrac)
	fmt.Fprintf(&b, "%9s %9s %9s  %10s %10s %7s  %5s %6s %6s  %8s %8s\n",
		"flows", "seen", "packets", "exact", "sketch", "ratio", "hh", "missed", "fnrate", "cms-err", "hll-err")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%9d %9d %9d  %10s %10s %6.1fx  %5d %6d %5.2f%%  %7.3f%% %7.3f%%\n",
			p.Flows, p.FlowsSeen, p.Packets,
			fmtBytes(p.ExactBytes), fmtBytes(p.SketchBytes), p.StateRatio,
			p.HeavyTrue, p.HeavyMissed, 100*p.FalseNegRate,
			100*p.MeanRelErr, 100*p.DistinctRelErr)
	}
	return b.String()
}

// fmtBytes renders a byte count with a binary-ish unit.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
