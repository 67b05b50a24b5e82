package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const demoScenario = `{
  "name": "demo",
  "seed": 7,
  "duration_s": 6,
  "switches": [{"name": "s1", "x": 1.2, "y": 0}],
  "hosts": [
    {"name": "h1", "addr": "10.0.0.1", "switch": "s1", "port": 1},
    {"name": "h2", "addr": "10.0.0.2", "switch": "s1", "port": 2}
  ],
  "rules": [
    {"switch": "s1", "priority": 1, "dst": "10.0.0.2", "action": "output", "ports": [2]}
  ],
  "apps": [
    {"type": "heavyhitter", "switch": "s1", "buckets": 12},
    {"type": "portscan", "switch": "s1", "first_port": 8000, "num_ports": 12, "threshold": 8},
    {"type": "heartbeat", "switch": "s1"}
  ],
  "traffic": [
    {"type": "cbr", "from": "h1", "to": "h2", "src_port": 5000, "dst_port": 80,
     "pps": 250, "size": 1500, "start_s": 0.2, "stop_s": 6},
    {"type": "portscan", "from": "h1", "to": "h2", "src_port": 4444,
     "first_port": 8000, "num_ports": 12, "interval_ms": 250, "start_s": 1}
  ],
  "noise": [{"type": "song", "level": 0.01, "x": -2, "y": 1}]
}`

func TestLoadAndRunDemo(t *testing.T) {
	cfg, err := Load(strings.NewReader(demoScenario))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "demo" || rep.DurationS != 6 {
		t.Errorf("report header: %+v", rep)
	}
	if rep.WindowsAnalysed < 100 {
		t.Errorf("windows = %d", rep.WindowsAnalysed)
	}
	if rep.TonesDetected == 0 {
		t.Error("no tones detected")
	}
	if len(rep.Hosts) != 2 || rep.Hosts[1].RxPackets == 0 {
		t.Errorf("host reports: %+v", rep.Hosts)
	}
	byType := map[string]AppReport{}
	for _, a := range rep.Apps {
		byType[a.Type] = a
	}
	if len(byType["heavyhitter"].Events) == 0 {
		t.Errorf("heavy hitter saw nothing: %+v", byType["heavyhitter"])
	}
	if len(byType["portscan"].Events) == 0 {
		t.Errorf("port scan saw nothing: %+v", byType["portscan"])
	}
	if len(byType["heartbeat"].Events) != 0 {
		t.Errorf("live heartbeat raised alerts: %+v", byType["heartbeat"])
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		cfg, err := Load(strings.NewReader(demoScenario))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TonesDetected != b.TonesDetected || a.WindowsAnalysed != b.WindowsAnalysed {
		t.Errorf("non-deterministic: %d/%d vs %d/%d",
			a.TonesDetected, a.WindowsAnalysed, b.TonesDetected, b.WindowsAnalysed)
	}
	if len(a.Apps) != len(b.Apps) {
		t.Fatal("app report count differs")
	}
	for i := range a.Apps {
		if len(a.Apps[i].Events) != len(b.Apps[i].Events) {
			t.Errorf("app %d events differ: %d vs %d",
				i, len(a.Apps[i].Events), len(b.Apps[i].Events))
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{`,
		"unknown field":    `{"duration_s": 1, "switches": [{"name":"s"}], "bogus": 1}`,
		"no duration":      `{"switches": [{"name":"s"}]}`,
		"no switches":      `{"duration_s": 1}`,
		"dup switch":       `{"duration_s":1,"switches":[{"name":"s"},{"name":"s"}]}`,
		"empty switch":     `{"duration_s":1,"switches":[{"name":""}]}`,
		"host bad switch":  `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"x","port":1}]}`,
		"host bad addr":    `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"nope","switch":"s","port":1}]}`,
		"host IPv6 addr":   `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"::2","switch":"s","port":1}]}`,
		"dup host":         `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1},{"name":"h","addr":"10.0.0.2","switch":"s","port":2}]}`,
		"empty host":       `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"","addr":"10.0.0.1","switch":"s","port":1}]}`,
		"bad link":         `{"duration_s":1,"switches":[{"name":"s"}],"links":[{"a":"s","a_port":1,"b":"x","b_port":1}]}`,
		"bad rule action":  `{"duration_s":1,"switches":[{"name":"s"}],"rules":[{"switch":"s","action":"teleport"}]}`,
		"rule no ports":    `{"duration_s":1,"switches":[{"name":"s"}],"rules":[{"switch":"s","action":"output"}]}`,
		"rule bad switch":  `{"duration_s":1,"switches":[{"name":"s"}],"rules":[{"switch":"x","action":"drop"}]}`,
		"rule bad dst":     `{"duration_s":1,"switches":[{"name":"s"}],"rules":[{"switch":"s","dst":"not-an-ip","action":"drop"}]}`,
		"rule IPv6 dst":    `{"duration_s":1,"switches":[{"name":"s"}],"rules":[{"switch":"s","dst":"2001:db8::2","action":"drop"}]}`,
		"bad app type":     `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"magic","switch":"s"}]}`,
		"app bad switch":   `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"heartbeat","switch":"x"}]}`,
		"hh no buckets":    `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"heavyhitter","switch":"s"}]}`,
		"scan no ports":    `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portscan","switch":"s"}]}`,
		"qm no port":       `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"queuemon","switch":"s"}]}`,
		"ddos IPv6 watch":  `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"ddos","switch":"s","buckets":4,"watch":"::1"}]}`,
		"traffic unknown":  `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"warp","from":"h","to":"h","start_s":0,"stop_s":1}]}`,
		"traffic bad host": `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"cbr","from":"x","to":"h","pps":1,"start_s":0,"stop_s":1}]}`,
		"traffic bad time": `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"cbr","from":"h","to":"h","pps":1,"start_s":2,"stop_s":1}]}`,
		"traffic no pps":   `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"cbr","from":"h","to":"h","start_s":0,"stop_s":1}]}`,
		"bad noise":        `{"duration_s":1,"switches":[{"name":"s"}],"noise":[{"type":"thunder"}]}`,
	}
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateRejectsBadSwitchPorts: every (switch, port) pair a
// scenario plugs must be unique and inside 1..maxSwitchPorts; each case
// would otherwise pass Validate and panic in netsim.Connect at run time.
func TestValidateRejectsBadSwitchPorts(t *testing.T) {
	const head = `{"duration_s":1,"switches":[{"name":"s1"},{"name":"s2"}],`
	host := func(name string, port int) string {
		return fmt.Sprintf(`{"name":%q,"addr":"10.0.0.%d","switch":"s1","port":%d}`, name, len(name), port)
	}
	for name, js := range map[string]string{
		"two hosts on one port":   head + `"hosts":[` + host("a", 1) + `,` + host("bb", 1) + `]}`,
		"host and link on port":   head + `"hosts":[` + host("a", 1) + `],"links":[{"a":"s1","a_port":1,"b":"s2","b_port":1}]}`,
		"two links on one port":   head + `"links":[{"a":"s1","a_port":2,"b":"s2","b_port":1},{"a":"s2","a_port":2,"b":"s1","b_port":2}]}`,
		"link looped to its port": head + `"links":[{"a":"s1","a_port":3,"b":"s1","b_port":3}]}`,
		"host port zero":          head + `"hosts":[` + host("a", 0) + `]}`,
		"host port negative":      head + `"hosts":[` + host("a", -1) + `]}`,
		"host port above max":     head + `"hosts":[` + host("a", maxSwitchPorts+1) + `]}`,
		"link port zero":          head + `"links":[{"a":"s1","a_port":0,"b":"s2","b_port":1}]}`,
		"link port above max":     head + `"links":[{"a":"s1","a_port":1,"b":"s2","b_port":` + fmt.Sprint(maxSwitchPorts+1) + `}]}`,
	} {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := head + `"hosts":[` + host("a", 1) + `,` + host("bb", maxSwitchPorts) + `],"links":[{"a":"s1","a_port":2,"b":"s2","b_port":2}]}`
	if _, err := Load(strings.NewReader(ok)); err != nil {
		t.Errorf("distinct in-range ports rejected: %v", err)
	}
}

func TestQueueMonScenario(t *testing.T) {
	js := `{
	  "name": "qm", "seed": 3, "duration_s": 8,
	  "switches": [{"name": "s1", "x": 1}],
	  "hosts": [
	    {"name": "h1", "addr": "10.0.0.1", "switch": "s1", "port": 1},
	    {"name": "h2", "addr": "10.0.0.2", "switch": "s1", "port": 2,
	     "rate_mbps": 1, "queue": 200}
	  ],
	  "rules": [{"switch":"s1","priority":1,"dst":"10.0.0.2","action":"output","ports":[2]}],
	  "apps": [{"type": "queuemon", "switch": "s1", "port": 2}],
	  "traffic": [{"type": "ramp", "from": "h1", "to": "h2", "src_port": 1,
	    "dst_port": 2, "pps": 50, "end_pps": 300, "size": 1500,
	    "start_s": 0.2, "stop_s": 4}]
	}`
	cfg, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var qm AppReport
	for _, a := range rep.Apps {
		if a.Type == "queuemon" {
			qm = a
		}
	}
	joined := strings.Join(qm.Events, ",")
	if !strings.Contains(joined, "high") || !strings.HasPrefix(joined, "low") {
		t.Errorf("queue levels = %v", qm.Events)
	}
}

func TestTwoSwitchScenarioWithNoise(t *testing.T) {
	js := `{
	  "name": "two-switch", "seed": 11, "duration_s": 5,
	  "switches": [{"name": "s1", "x": 1}, {"name": "s2", "x": -1}],
	  "hosts": [
	    {"name": "h1", "addr": "10.0.0.1", "switch": "s1", "port": 1},
	    {"name": "h2", "addr": "10.0.0.2", "switch": "s2", "port": 1, "latency_ms": 0.5}
	  ],
	  "links": [{"a": "s1", "a_port": 5, "b": "s2", "b_port": 5, "rate_mbps": 100}],
	  "rules": [
	    {"switch": "s1", "priority": 1, "dst": "10.0.0.2", "action": "output", "ports": [5]},
	    {"switch": "s2", "priority": 1, "dst": "10.0.0.2", "action": "output", "ports": [1]},
	    {"switch": "s2", "priority": 0, "action": "drop"},
	    {"switch": "s1", "priority": 0, "dst_port": 9, "action": "hashsplit", "ports": [5]},
	    {"switch": "s1", "priority": 0, "dst_port": 10, "action": "split", "ports": [5]}
	  ],
	  "apps": [
	    {"type": "heavyhitter", "switch": "s1", "buckets": 8, "threshold": 4},
	    {"type": "heartbeat", "switch": "s2", "period_s": 0.8}
	  ],
	  "traffic": [
	    {"type": "cbr", "from": "h1", "to": "h2", "src_port": 7, "dst_port": 80,
	     "pps": 200, "size": 1000, "start_s": 0.2, "stop_s": 5}
	  ],
	  "noise": [
	    {"type": "office", "x": 0, "y": 3},
	    {"type": "datacenter", "x": 5, "y": 5}
	  ]
	}`
	cfg, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hosts[1].RxPackets == 0 {
		t.Error("cross-switch traffic not delivered")
	}
	foundHH := false
	for _, a := range rep.Apps {
		if a.Type == "heavyhitter" && len(a.Events) > 0 {
			foundHH = true
		}
		if a.Type == "heartbeat" && len(a.Events) != 0 {
			t.Errorf("live heartbeat alerted: %v", a.Events)
		}
	}
	if !foundHH {
		t.Error("heavy hitter missed the elephant across noise")
	}
}

func TestDDoSScenarioAlertsOnlyDuringFlood(t *testing.T) {
	f, err := os.Open("../../scenarios/ddos.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dd AppReport
	for _, a := range rep.Apps {
		if a.Type == "ddos" {
			dd = a
		}
	}
	if len(dd.Events) == 0 {
		t.Fatal("flood raised no alerts")
	}
	// The flood starts at t=3; no alert may predate it.
	for _, e := range dd.Events {
		if strings.HasPrefix(e, "t=1.") || strings.HasPrefix(e, "t=2.") || strings.HasPrefix(e, "t=3.0") {
			t.Errorf("alert before the flood: %s", e)
		}
	}
}

// TestStreamScenarioEquivalentToBatchAtFullWindow runs the demo
// scenario and every shipped scenarios/*.json on both detection paths
// with the streaming hop set to the full window: every observable —
// window count, tone count, every application's event log, host
// traffic, the health snapshot and the device rows — must be
// identical, because at hop == window the streaming pipeline is
// bit-exact with the batch loop. This is the CI equivalence smoke in
// miniature.
func TestStreamScenarioEquivalentToBatchAtFullWindow(t *testing.T) {
	type input struct{ name, js string }
	inputs := []input{{"demo", demoScenario}}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped scenarios found: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(f), string(b)})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			run := func(stream bool) *Report {
				cfg, err := Load(strings.NewReader(in.js))
				if err != nil {
					t.Fatal(err)
				}
				if stream {
					cfg.Stream = true
					cfg.HopS = 0.050
					if err := cfg.Validate(); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			batch, streamed := run(false), run(true)
			if streamed.Stream == nil {
				t.Fatal("stream run carries no stream report")
			}
			if streamed.WindowsAnalysed != batch.WindowsAnalysed {
				t.Errorf("windows: stream %d != batch %d", streamed.WindowsAnalysed, batch.WindowsAnalysed)
			}
			if streamed.TonesDetected != batch.TonesDetected {
				t.Errorf("tones: stream %d != batch %d", streamed.TonesDetected, batch.TonesDetected)
			}
			if len(streamed.Apps) != len(batch.Apps) {
				t.Fatalf("app report counts differ: %d vs %d", len(streamed.Apps), len(batch.Apps))
			}
			for i := range batch.Apps {
				b, s := batch.Apps[i], streamed.Apps[i]
				if b.Type != s.Type || strings.Join(b.Events, "|") != strings.Join(s.Events, "|") {
					t.Errorf("app %s events diverged:\nstream: %v\nbatch:  %v", b.Type, s.Events, b.Events)
				}
			}
			for i := range batch.Hosts {
				if batch.Hosts[i] != streamed.Hosts[i] {
					t.Errorf("host %s traffic diverged: %+v vs %+v",
						batch.Hosts[i].Name, streamed.Hosts[i], batch.Hosts[i])
				}
			}
			if !reflect.DeepEqual(streamed.Health, batch.Health) {
				t.Errorf("health diverged:\nstream: %+v\nbatch:  %+v", streamed.Health, batch.Health)
			}
			if !reflect.DeepEqual(streamed.Devices, batch.Devices) {
				t.Errorf("device rows diverged:\nstream: %+v\nbatch:  %+v", streamed.Devices, batch.Devices)
			}
		})
	}
}

// TestStreamScenarioReportsLatency runs the demo scenario on the
// streaming path at the default 10 ms hop and checks the published
// latency budget: the pipeline hops five times per window, detects
// onsets, and reports sub-window sound-to-detection percentiles.
func TestStreamScenarioReportsLatency(t *testing.T) {
	cfg, err := Load(strings.NewReader(demoScenario))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stream = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stream
	if s == nil {
		t.Fatal("no stream report")
	}
	if s.HopS != DefaultHopS {
		t.Errorf("hop = %g, want default %g", s.HopS, DefaultHopS)
	}
	if s.Hops < 500 {
		t.Errorf("hops = %d, want ~600 over 6 s at 10 ms", s.Hops)
	}
	if s.Onsets == 0 {
		t.Error("no onsets detected")
	}
	if s.CaptureErrors != 0 {
		t.Errorf("capture errors = %d", s.CaptureErrors)
	}
	if s.DetectP50 <= 0 || s.DetectP50 > 0.050 {
		t.Errorf("p50 latency = %gs, want sub-window", s.DetectP50)
	}
	if s.DetectP99 < s.DetectP50 || s.DetectP99 > 0.2 {
		t.Errorf("p99 latency = %gs, want >= p50 and attributable (< 0.2s)", s.DetectP99)
	}
}

func TestValidateRejectsBadStreamConfig(t *testing.T) {
	cases := map[string]string{
		"hop without stream": `{"duration_s":1,"switches":[{"name":"s"}],"hop_s":0.01}`,
		"misaligned hop":     `{"duration_s":1,"switches":[{"name":"s"}],"stream":true,"hop_s":0.012}`,
		"negative hop":       `{"duration_s":1,"switches":[{"name":"s"}],"stream":true,"hop_s":-0.01}`,
	}
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScenarioDeviceFaultsSelfHeal drives the declarative JSON route
// through the same arc the chaos pipeline proves imperatively: a
// three-microphone fleet, a noise-ramped mic that is repaired mid-run,
// and a persistently detuned speaker. The report must carry a Devices
// section showing the recalibration, the quarantine round-trip, and
// the re-key — and the heartbeat app must keep hearing its device
// through the re-key (no false death alert).
func TestScenarioDeviceFaultsSelfHeal(t *testing.T) {
	js := `{
	  "name": "degrading", "seed": 7, "duration_s": 12,
	  "switches": [{"name": "s1", "x": 1}],
	  "mics": [{"name": "m1", "y": 1}, {"name": "m2", "y": 2}],
	  "apps": [{"type": "heartbeat", "switch": "s1", "period_s": 0.3}],
	  "device_faults": [
	    {"kind": "mic_noise_ramp", "device": "m1", "start_s": 2, "end_s": 2.5,
	     "level": 0.5, "clear_s": 6},
	    {"kind": "speaker_detune", "device": "s1", "start_s": 3, "end_s": 3.5,
	     "level": 1.04}
	  ]
	}`
	cfg, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Devices) != 4 {
		t.Fatalf("%d device rows, want 4 (3 mics + 1 speaker): %+v", len(rep.Devices), rep.Devices)
	}
	byName := map[string]struct {
		state                          string
		recals, quars, rejoins, rekeys uint64
		quarantined                    bool
	}{}
	for _, d := range rep.Devices {
		byName[d.Kind+"/"+d.Name] = struct {
			state                          string
			recals, quars, rejoins, rekeys uint64
			quarantined                    bool
		}{d.State, d.Recalibrations, d.Quarantines, d.Rejoins, d.Rekeys, d.Quarantined}
	}
	m1 := byName["mic/m1"]
	if m1.recals == 0 || m1.quars == 0 || m1.rejoins == 0 {
		t.Errorf("m1 recal=%d quarantines=%d rejoins=%d, want all > 0",
			m1.recals, m1.quars, m1.rejoins)
	}
	if m1.quarantined {
		t.Error("m1 still quarantined after the repair")
	}
	s1 := byName["speaker/s1"]
	if s1.state != "detuned" || s1.rekeys == 0 {
		t.Errorf("s1 state=%s rekeys=%d, want detuned with a re-key", s1.state, s1.rekeys)
	}
	if rep.Health == nil || rep.Health.StateName != "degraded" {
		t.Fatalf("health %+v, want degraded (persistent detune)", rep.Health)
	}
	for _, a := range rep.Apps {
		if a.Type == "heartbeat" && len(a.Events) != 0 {
			t.Errorf("heartbeat alerted through the re-key: %v", a.Events)
		}
	}
}

func TestValidateRejectsBadDeviceConfig(t *testing.T) {
	cases := map[string]string{
		"dup mic":         `{"duration_s":1,"switches":[{"name":"s"}],"mics":[{"name":"m"},{"name":"m"}]}`,
		"reserved mic":    `{"duration_s":1,"switches":[{"name":"s"}],"mics":[{"name":"controller"}]}`,
		"empty mic":       `{"duration_s":1,"switches":[{"name":"s"}],"mics":[{"name":""}]}`,
		"neg mic noise":   `{"duration_s":1,"switches":[{"name":"s"}],"mics":[{"name":"m","noise_rms":-1}]}`,
		"bad fault kind":  `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"rust","device":"s","start_s":0,"end_s":1,"level":0}]}`,
		"unknown mic":     `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"mic_noise_ramp","device":"x","start_s":0,"end_s":1,"level":0.1}]}`,
		"unknown speaker": `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"speaker_detune","device":"x","start_s":0,"end_s":1,"level":1.04}]}`,
		"bad times":       `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"speaker_decay","device":"s","start_s":1,"end_s":1,"level":0.5}]}`,
		"neg level":       `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"speaker_decay","device":"s","start_s":0,"end_s":1,"level":-0.5}]}`,
		"zero detune":     `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"speaker_detune","device":"s","start_s":0,"end_s":1,"level":0}]}`,
		"clear early":     `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[{"kind":"speaker_decay","device":"s","start_s":0,"end_s":2,"level":0.5,"clear_s":1}]}`,
		"overlap": `{"duration_s":1,"switches":[{"name":"s"}],"device_faults":[
			{"kind":"speaker_decay","device":"s","start_s":0,"end_s":2,"level":0.5,"clear_s":3},
			{"kind":"speaker_decay","device":"s","start_s":4,"end_s":5,"level":0.1}]}`,
	}
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateRejectsBadSpreadApp(t *testing.T) {
	cases := map[string]string{
		"ddos no buckets": `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"ddos","switch":"s","watch":"10.0.0.1"}]}`,
		"ddos bad watch":  `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"ddos","switch":"s","buckets":8,"watch":"nope"}]}`,
		"neg amplitude":   `{"duration_s":1,"switches":[{"name":"s"}],"min_amplitude":-1}`,
	}
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
