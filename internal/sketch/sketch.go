// Package sketch provides the streaming data structures behind MDN's
// million-flow analytics: a count-min sketch (heavy-hitter and
// port-scan fan-out counting), a HyperLogLog distinct counter
// (superspreader and DDoS-victim detection), and a space-saving top-k
// tracker. Exact per-key state explodes at production traffic volumes;
// these trade bounded, tunable error for constant memory.
//
// Design rules shared by every structure in the package:
//
//   - Explicit error knobs. The count-min sketch is sized from (ε, δ):
//     estimates exceed the true count by at most εN (N = total stream
//     weight) with probability at least 1−δ. HyperLogLog is sized from
//     a precision p: the relative standard error is 1.04/√2ᵖ. The
//     top-k tracker reports a per-item error bound alongside each
//     count.
//   - Zero-allocation hot paths. Update/Add/Estimate touch only
//     preallocated flat arrays; nothing on the per-packet path asks
//     the allocator for memory.
//   - Seeded deterministic hashing. Every structure hashes through
//     splitmix.Mix keyed by an explicit seed, so runs replay
//     exactly and sharded sketches built from the same seed merge
//     losslessly.
//   - Mergeability. Sketches of the same shape and seed merge
//     cell-wise (count-min: sum, HLL: max, top-k: count-sum union),
//     matching the fleet's shard model: per-worker sketches combine
//     into exactly the sketch a single pass would have built (for CMS
//     with plain update and HLL, bit-for-bit).
package sketch

import "mdn/internal/splitmix"

// hashPair derives the two base hashes for Kirsch–Mitzenmacher double
// hashing: row i of a depth-d sketch uses h1 + i·h2, which preserves
// the count-min guarantees while costing one mix per update instead of
// d independent hashes. h2 is forced odd so successive rows never
// collapse onto one lane of a power-of-two table.
func hashPair(key, seed uint64) (h1, h2 uint64) {
	h1 = splitmix.Mix(key ^ seed)
	h2 = splitmix.Mix(h1^splitmix.Gamma) | 1
	return h1, h2
}
