package mdn

import (
	"mdn/internal/core"
	"mdn/internal/scenario"
	"mdn/scenarios"
)

// The scenario API: a world is stated as a Config, built once and run.
type (
	// Config describes a deployment: room, switches, hosts, apps,
	// traffic and noise. Its JSON form is what cmd/mdnsim reads.
	Config = scenario.Config
	// SwitchConfig places one switch, and its speaker, in the room.
	SwitchConfig = scenario.SwitchConfig
	// TrafficConfig runs one traffic generator between two hosts.
	TrafficConfig = scenario.TrafficConfig
	// World is a built Config: its simulator, controller, voices,
	// topology and deployed apps, ready to run once.
	World = scenario.World
	// Balancer is a loadbalance app in World.Apps: its queue monitor
	// and the load balancer acting on what the monitor hears.
	Balancer = scenario.Balancer
)

// Build validates c and builds its world. A caller attaches its own
// subscribers and schedules to the world before World.Run.
func Build(c *Config) (*World, error) { return scenario.Build(c) }

// Load parses and validates the named shipped scenario file, for
// example "portknock.json", from any working directory.
func Load(name string) (*Config, error) { return scenarios.Load(name) }

// Detection, tone planning and the Section 4 state machine, for
// callers that attach their own listener to a World.
type (
	// FrequencyPlan hands out non-overlapping tone sets to devices.
	FrequencyPlan = core.FrequencyPlan
	// Detection is one observed tone.
	Detection = core.Detection
	// OnsetFilter confirms tone onsets across windows. The onsets its
	// Step returns are filter-owned scratch, valid until the next Step
	// (the same rule as Detector.Detect); copy them to keep them.
	OnsetFilter = core.OnsetFilter
	// FSM is the generic state machine of Section 4.
	FSM = core.FSM
)

// DefaultStride is the recommended slot stride for same-window tones.
const DefaultStride = core.DefaultStride

// NewFrequencyPlan creates a plan over [minHz, maxHz] with the given
// slot spacing.
func NewFrequencyPlan(minHz, maxHz, spacing float64) *FrequencyPlan {
	return core.NewFrequencyPlan(minHz, maxHz, spacing)
}

// NewOnsetFilter returns a 2-window-confirmation onset filter.
func NewOnsetFilter() *OnsetFilter { return core.NewOnsetFilter() }

// SequenceFSM builds the linear machine accepting exactly the given
// symbol sequence.
func SequenceFSM(symbols []string) *FSM { return core.SequenceFSM(symbols) }
