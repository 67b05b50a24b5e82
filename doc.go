// Package mdn is Music-Defined Networking: network management and
// orchestration over an out-of-band sound channel, reproducing Hogan
// and Esposito, "Music-Defined Networking" (HotNets-XVII, 2018).
//
// Network devices emit tones describing their state (active
// applications) or are listened to passively (fan-failure detection);
// an MDN controller decodes tone sequences with the FFT and reacts —
// installing flow rules, raising alerts, balancing load.
//
// The package is the scenario API, the one way a program builds a
// world:
//
//   - a Config states the room, switches, hosts, apps, traffic and
//     noise; Load reads one of the shipped scenario files
//   - Build turns a Config into a World: its simulator, controller,
//     switch voices, topology and deployed apps (World.Apps)
//   - a caller attaches its own listener or transmitter to the World
//     (World.Controller, World.Voice), then runs it once (World.Run)
//   - a listener confirms tones with an OnsetFilter; FrequencyPlan
//     hands out tone sets, and SequenceFSM is the §4 state machine
//
// See the examples directory for runnable end-to-end scenarios,
// cmd/mdnsim for the scenario runner and cmd/mdnbench for the paper's
// full evaluation.
package mdn
