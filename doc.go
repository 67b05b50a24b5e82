// Package mdn is Music-Defined Networking: network management and
// orchestration over an out-of-band sound channel, reproducing Hogan
// and Esposito, "Music-Defined Networking" (HotNets-XVII, 2018).
//
// Network devices emit tones describing their state (active
// applications) or are listened to passively (fan-failure detection);
// an MDN controller decodes tone sequences with the FFT and reacts —
// installing flow rules, raising alerts, balancing load.
//
// The package is a small facade over the implementation packages,
// holding what the example programs call:
//
//   - a Testbed builder assembling the simulated network, acoustic
//     room, frequency plan (FrequencyPlan) and controller microphone
//   - tone detection over captured audio (Detector, OnsetFilter) and
//     the controller event loop (Controller)
//   - the paper's applications: PortKnock (§4), HeavyHitter, PortScan
//     and SpreadDetector (§5), Relay (§8) and FanMonitor (§7)
//   - the acoustic data channel (ModemBand, ModemTransmitter,
//     ModemReceiver)
//
// See the examples directory for runnable end-to-end scenarios and
// cmd/mdnbench for the paper's full evaluation.
package mdn
