package experiments

import "mdn/internal/telemetry"

// stageClock times compute stages — the FFT hot path Figure 2b
// measures. It defaults to wall time, which is the honest measurement
// for a processing-latency CDF; tests swap in a deterministic
// telemetry.StepClock so the experiment's numbers (and its pass/fail
// rows) replay exactly instead of depending on the host's load.
var stageClock telemetry.TimeSource = telemetry.Wall()
