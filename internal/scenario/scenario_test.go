package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mdn/internal/core"
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

// buildDemo builds the demo scenario's world without running it.
func buildDemo(t *testing.T) *World {
	t.Helper()
	cfg, err := Load(strings.NewReader(demoScenario))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildDeploysMultipleApps: Build wires the demo's heavy hitter,
// port scan and shared heartbeat onto its one controller in config
// order, and both counting apps see their own traffic.
func TestBuildDeploysMultipleApps(t *testing.T) {
	w := buildDemo(t)
	if len(w.Apps) != 3 {
		t.Fatalf("apps = %T", w.Apps)
	}
	hh, okHH := w.Apps[0].(*core.HeavyHitter)
	ps, okPS := w.Apps[1].(*core.PortScan)
	_, okHB := w.Apps[2].(*core.Heartbeat)
	if !okHH || !okPS || !okHB {
		t.Fatalf("apps = %T %T %T, want heavy hitter, port scan, heartbeat",
			w.Apps[0], w.Apps[1], w.Apps[2])
	}
	if n := len(w.ctrl.Subscribers()); n != len(w.Apps) {
		t.Errorf("controller has %d subscribers, want one per app (%d)", n, len(w.Apps))
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hh.Reports) == 0 {
		t.Error("heavy hitter saw nothing")
	}
	if len(ps.Sweep) < 8 {
		t.Errorf("port scan sweep = %d, want most of 12", len(ps.Sweep))
	}
}

// TestBuildControllerHealth: after a clean run the world's controller
// is healthy, with one unquarantined subscriber per app, and the report
// carries that same snapshot.
func TestBuildControllerHealth(t *testing.T) {
	w := buildDemo(t)
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := w.ctrl.Health()
	if h.State != core.Healthy {
		t.Errorf("controller health = %s (%v), want healthy", h.StateName, h.Reasons)
	}
	if h.Subscribers != len(w.Apps) {
		t.Errorf("subscribers = %d, want one per app (%d)", h.Subscribers, len(w.Apps))
	}
	for _, s := range w.ctrl.Subscribers() {
		if s.Quarantined || s.Panics != 0 {
			t.Errorf("subscriber %+v not clean", s)
		}
	}
	if !reflect.DeepEqual(rep.Health, &h) {
		t.Errorf("report health = %+v, want the controller's %+v", rep.Health, h)
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

		// Negative values where 0 means "default".
		"neg host rate":     `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1,"rate_mbps":-1}]}`,
		"neg host latency":  `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1,"latency_ms":-1}]}`,
		"neg host queue":    `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1,"queue":-1}]}`,
		"neg link queue":    `{"duration_s":1,"switches":[{"name":"s"},{"name":"t"}],"links":[{"a":"s","a_port":1,"b":"t","b_port":1,"queue":-5}]}`,
		"neg app threshold": `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"heavyhitter","switch":"s","buckets":4,"threshold":-1}]}`,
		"neg period":        `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"heartbeat","switch":"s","period_s":-0.5}]}`,
		"neg size":          `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"cbr","from":"h","to":"h","pps":1,"size":-1,"start_s":0,"stop_s":1}]}`,
		"neg end pps":       `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"ramp","from":"h","to":"h","pps":1,"end_pps":-1,"start_s":0,"stop_s":1}]}`,
		"neg interval":      `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"portscan","from":"h","to":"h","num_ports":2,"interval_ms":-1,"start_s":0}]}`,
		"neg noise level":   `{"duration_s":1,"switches":[{"name":"s"}],"noise":[{"type":"song","level":-0.1}]}`,
		// A heartbeat faster than the voice can replay one tone.
		"heartbeat 1ns": `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"heartbeat","switch":"s","period_s":1e-9}]}`,
		// Heartbeats share one miss check, so one period; 0 is the 1 s
		// default.
		"heartbeat periods differ": `{"duration_s":1,"switches":[{"name":"s1"},{"name":"s2"}],"apps":[{"type":"heartbeat","switch":"s1","period_s":1.0},{"type":"heartbeat","switch":"s2","period_s":0.3}]}`,
		"heartbeat default vs 0.3": `{"duration_s":1,"switches":[{"name":"s1"},{"name":"s2"}],"apps":[{"type":"heartbeat","switch":"s1","period_s":0.3},{"type":"heartbeat","switch":"s2"}]}`,
		// Port ranges past 65535.
		"app ports wrap":     `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portscan","switch":"s","first_port":65530,"num_ports":12}]}`,
		"knock ports wrap":   `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portknock","switch":"s","first_port":65535,"num_ports":2,"install":{"action":"drop"}}]}`,
		"traffic ports wrap": `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"portscan","from":"h","to":"h","first_port":65530,"num_ports":12,"start_s":0}]}`,
		// Generators offering more than maxOfferedPackets.
		"cbr 1e12 pps":      `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"cbr","from":"h","to":"h","pps":1e12,"start_s":0,"stop_s":1}]}`,
		"ramp 1e12 end pps": `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"ramp","from":"h","to":"h","pps":1,"end_pps":1e12,"start_s":0,"stop_s":1}]}`,
		"scan 1e8 ports":    `{"duration_s":1,"switches":[{"name":"s"}],"hosts":[{"name":"h","addr":"10.0.0.1","switch":"s","port":1}],"traffic":[{"type":"portscan","from":"h","to":"h","num_ports":100000000,"start_s":0}]}`,
		// The rule-installing apps and their install.
		"knock no install":     `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portknock","switch":"s","first_port":7001,"num_ports":3}]}`,
		"lb no install":        `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"loadbalance","switch":"s","port":2}]}`,
		"install bad action":   `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portknock","switch":"s","first_port":7001,"num_ports":3,"install":{"action":"teleport"}}]}`,
		"install IPv6 dst":     `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portknock","switch":"s","first_port":7001,"num_ports":3,"install":{"dst":"2001:db8::2","action":"drop"}}]}`,
		"install priority":     `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"loadbalance","switch":"s","port":2,"install":{"priority":4294967296,"action":"drop"}}]}`,
		"install names switch": `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"loadbalance","switch":"s","port":2,"install":{"switch":"s","action":"drop"}}]}`,
		"install on scan":      `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portscan","switch":"s","num_ports":3,"install":{"action":"drop"}}]}`,
		"knock no ports":       `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"portknock","switch":"s","install":{"action":"drop"}}]}`,
		"lb no port":           `{"duration_s":1,"switches":[{"name":"s"}],"apps":[{"type":"loadbalance","switch":"s","install":{"action":"drop"}}]}`,
		// Two apps that allocate one frequency-plan device on a switch.
		"two knocks on s1":   `{"duration_s":1,"switches":[{"name":"s1"}],"apps":[{"type":"portknock","switch":"s1","first_port":7001,"num_ports":3,"install":{"action":"drop"}},{"type":"portknock","switch":"s1","first_port":7101,"num_ports":3,"install":{"action":"drop"}}]}`,
		"queuemon beside lb": `{"duration_s":1,"switches":[{"name":"s1"}],"apps":[{"type":"loadbalance","switch":"s1","port":2,"install":{"action":"drop"}},{"type":"queuemon","switch":"s1","port":2}]}`,
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
// through the same arc the chaos pipeline proves: a three-microphone
// fleet, a noise-ramped mic that is repaired mid-run, and a
// persistently detuned speaker. The report must carry a Devices
// section showing the recalibration, the quarantine round-trip, and
// the re-key — and the heartbeat app must keep hearing its device
// through the re-key (no false death alert). With a second, unfaulted
// switch beating too, the monitor watches that speaker as well — it is
// not told in advance which one will fail — and reports it healthy.
func TestScenarioDeviceFaultsSelfHeal(t *testing.T) {
	const faulted = `{
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
	twoSwitch := strings.NewReplacer(
		`"switches": [{"name": "s1", "x": 1}]`,
		`"switches": [{"name": "s1", "x": 1}, {"name": "s2", "x": -1}]`,
		`"apps": [{"type": "heartbeat", "switch": "s1", "period_s": 0.3}]`,
		`"apps": [{"type": "heartbeat", "switch": "s1", "period_s": 0.3},
		          {"type": "heartbeat", "switch": "s2", "period_s": 0.3}]`,
	).Replace(faulted)
	for _, tc := range []struct {
		name     string
		js       string
		speakers int
	}{
		{"one switch", faulted, 1},
		{"two switches", twoSwitch, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Load(strings.NewReader(tc.js))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := 3 + tc.speakers; len(rep.Devices) != want {
				t.Fatalf("%d device rows, want %d (3 mics + %d speakers): %+v",
					len(rep.Devices), want, tc.speakers, rep.Devices)
			}
			byName := map[string]core.DeviceHealth{}
			for _, d := range rep.Devices {
				byName[d.Kind+"/"+d.Name] = d
			}
			m1 := byName["mic/m1"]
			if m1.Recalibrations == 0 || m1.Quarantines == 0 || m1.Rejoins == 0 {
				t.Errorf("m1 recal=%d quarantines=%d rejoins=%d, want all > 0",
					m1.Recalibrations, m1.Quarantines, m1.Rejoins)
			}
			if m1.Quarantined {
				t.Error("m1 still quarantined after the repair")
			}
			s1 := byName["speaker/s1"]
			if s1.State != "detuned" || s1.Rekeys == 0 {
				t.Errorf("s1 state=%s rekeys=%d, want detuned with a re-key", s1.State, s1.Rekeys)
			}
			if tc.speakers == 2 {
				s2, ok := byName["speaker/s2"]
				if !ok || s2.State != "healthy" || s2.Rekeys != 0 {
					t.Errorf("unfaulted speaker s2 = %+v (reported %v), want healthy", s2, ok)
				}
			}
			if rep.Health == nil || rep.Health.StateName != "degraded" {
				t.Fatalf("health %+v, want degraded (persistent detune)", rep.Health)
			}
			for _, a := range rep.Apps {
				if a.Type == "heartbeat" && len(a.Events) != 0 {
					t.Errorf("heartbeat alerted through the re-key: %v", a.Events)
				}
			}
		})
	}

	// An unfaulted s2 that runs only an event-driven app knocks at 1 s
	// and again at 8 s, and is quiet by design in between: the monitor
	// must not take that silence for death and mute it.
	t.Run("event-driven second switch", func(t *testing.T) {
		cfg, err := Load(strings.NewReader(`{
		  "name": "quiet", "seed": 7, "duration_s": 12,
		  "switches": [{"name": "s1", "x": 1}, {"name": "s2", "x": -1}],
		  "hosts": [{"name": "h1", "addr": "10.0.0.1", "switch": "s2", "port": 1},
		            {"name": "h2", "addr": "10.0.0.2", "switch": "s2", "port": 2}],
		  "mics": [{"name": "m1", "y": 1}, {"name": "m2", "y": 2}],
		  "apps": [{"type": "heartbeat", "switch": "s1", "period_s": 0.3},
		           {"type": "portknock", "switch": "s2", "first_port": 7001, "num_ports": 3,
		            "install": {"priority": 10, "dst": "10.0.0.2", "dst_port": 8080,
		                        "action": "output", "ports": [2]}}],
		  "traffic": [
		    {"type": "portscan", "from": "h1", "to": "h2", "src_port": 40001,
		     "first_port": 7001, "num_ports": 3, "interval_ms": 500, "start_s": 1},
		    {"type": "portscan", "from": "h1", "to": "h2", "src_port": 40002,
		     "first_port": 7001, "num_ports": 3, "interval_ms": 500, "start_s": 8}],
		  "device_faults": [{"kind": "speaker_detune", "device": "s1", "start_s": 3, "end_s": 3.5,
		                     "level": 1.04}]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Devices {
			if d.Name == "s2" && (d.State != "healthy" || d.Muted || d.Rekeys != 0) {
				t.Errorf("unfaulted speaker s2 = %+v, want healthy", d)
			}
		}
		for _, w := range rep.Health.Wire {
			if w.Kind == "sounder" && w.Name == "s2" && w.Sent != 6 {
				t.Errorf("s2 sounded %d of its 6 knocks", w.Sent)
			}
		}
	})
}

// TestDeadSpeakerBesideLiveNeighbourNotRekeyed: s1's speaker dies at
// 6 s while s2, 2.5 m away on the neighbouring plan slot, keeps
// beating. The monitor's detune probe must not take s2's leakage
// around s1's tone for a detuned s1: s1 is muted as silent with no
// re-key, and s2 stays healthy.
func TestDeadSpeakerBesideLiveNeighbourNotRekeyed(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
	  "name": "dead-speaker", "seed": 160, "duration_s": 15,
	  "switches": [{"name": "s1", "x": 1}, {"name": "s2", "x": -1.5}],
	  "apps": [{"type": "heartbeat", "switch": "s1"}, {"type": "heartbeat", "switch": "s2"}],
	  "device_faults": [{"kind": "speaker_decay", "device": "s1", "start_s": 6, "end_s": 6.05, "level": 0}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]core.DeviceHealth{}
	for _, d := range rep.Devices {
		byName[d.Kind+"/"+d.Name] = d
	}
	if s1 := byName["speaker/s1"]; s1.Rekeys != 0 || s1.State != "silent" || !s1.Muted {
		t.Errorf("dead s1 = %+v, want silent and muted with 0 re-keys", s1)
	}
	if s2 := byName["speaker/s2"]; s2.Rekeys != 0 || s2.State != "healthy" || s2.Muted {
		t.Errorf("live s2 = %+v, want healthy", s2)
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

// shippedConfig loads one of the shipped scenarios/*.json.
func shippedConfig(t *testing.T, name string) *Config {
	t.Helper()
	f, err := os.Open("../../scenarios/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// loadShipped runs one of the shipped scenarios/*.json.
func loadShipped(t *testing.T, name string) *Report {
	t.Helper()
	rep, err := Run(shippedConfig(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestBuildRunMatchesRun: a world from Build runs to the report Run
// gives, less the metrics an unmetered world does not record; it
// exposes the topology and the balancer's monitor and load balancer;
// and it runs once.
func TestBuildRunMatchesRun(t *testing.T) {
	want := loadShipped(t, "loadbalance.json")
	want.Metrics = nil
	w, err := Build(shippedConfig(t, "loadbalance.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Build+Run report differs from Run:\n%+v\n%+v", got, want)
	}
	b, ok := w.Apps[0].(Balancer)
	if !ok || len(w.Apps) != 1 {
		t.Fatalf("apps = %T", w.Apps)
	}
	if !b.LoadBalancer.Installed || len(b.QueueSeries) == 0 {
		t.Errorf("balancer installed=%v after %d queue samples", b.LoadBalancer.Installed, len(b.QueueSeries))
	}
	if w.Switches["s3"].RxPackets == 0 || w.Hosts["h2"].RxPackets == 0 {
		t.Error("no traffic over the lower path to h2")
	}
	if _, err := w.Run(); err == nil {
		t.Error("a second Run of one world was accepted")
	}
}

// ruleTimes reads an app row's "t=…s <rule> rule sent|installed"
// events.
func ruleTimes(t *testing.T, a AppReport, rule string) (sent, installed float64) {
	t.Helper()
	sent, installed = -1, -1
	for _, e := range a.Events {
		var at float64
		if _, err := fmt.Sscanf(e, "t=%fs "+rule+" rule sent", &at); err == nil {
			sent = at
		}
		if _, err := fmt.Sscanf(e, "t=%fs "+rule+" rule installed", &at); err == nil {
			installed = at
		}
	}
	if sent < 0 || installed < sent {
		t.Fatalf("%s row: sent %g, installed %g in %v", a.Type, sent, installed, a.Events)
	}
	if a.Installs != 1 || a.Attempts == 0 || a.Failures != 0 {
		t.Errorf("%s row: installs=%d attempts=%d failures=%d, want one clean install",
			a.Type, a.Installs, a.Attempts, a.Failures)
	}
	return sent, installed
}

// TestPortKnockScenarioReproducesFig3: the shipped portknock scenario is
// Figure 3's world. Nothing reaches h2 before the third knock (11 s)
// opens the port; afterwards h2 receives the whole 50 pps × 1000 B
// stream.
func TestPortKnockScenarioReproducesFig3(t *testing.T) {
	rep := loadShipped(t, "portknock.json")
	if len(rep.Apps) != 1 || rep.Apps[0].Type != "portknock" {
		t.Fatalf("apps = %+v", rep.Apps)
	}
	_, installed := ruleTimes(t, rep.Apps[0], "open")
	if installed <= 11 || installed > 11.5 {
		t.Errorf("open rule installed at %.3f s, want just after the third knock at 11 s", installed)
	}
	var h2 HostReport
	for _, h := range rep.Hosts {
		if h.Name == "h2" {
			h2 = h
		}
	}
	// Every byte h2 holds arrived after the open: at most the offered
	// load from then on, and nearly all of it.
	offered := 50 * 1000 * (rep.DurationS - installed)
	if got := float64(h2.RxBytes); got > offered+1000 || got < 0.95*offered {
		t.Errorf("h2 received %.0f B, want the %.0f B offered after the open", got, offered)
	}
}

// TestControlLoopReportsSendAndLanding: the balancer of the shipped
// control-loop scenario hears the congested tone in the window
// [1.00 s, 1.05 s), sends its drop rule when that window is analysed at
// 1.05 s, and the rule lands on s1 the channel's 5 ms later, at
// 1.055 s. The report row names the rule after the install's action.
func TestControlLoopReportsSendAndLanding(t *testing.T) {
	w, err := Build(shippedConfig(t, "controlloop.json"))
	if err != nil {
		t.Fatal(err)
	}
	s1 := w.Switches["s1"]
	rules := map[float64]int{}
	for _, at := range []float64{1.0549, 1.0551} {
		w.Sim.Schedule(at, func() { rules[at] = len(s1.Rules()) })
	}
	rep, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	lb := w.Apps[0].(Balancer).LoadBalancer
	if math.Abs(lb.TriggeredAt-1.05) > 1e-9 || math.Abs(lb.InstalledAt-1.055) > 1e-9 {
		t.Errorf("rule sent at %g s, landed at %g s; want 1.05 and 1.055", lb.TriggeredAt, lb.InstalledAt)
	}
	if rules[1.0549] != 1 || rules[1.0551] != 2 {
		t.Errorf("s1 holds %d rules at 1.0549 s and %d at 1.0551 s, want the drop rule to land in between",
			rules[1.0549], rules[1.0551])
	}
	sent, installed := ruleTimes(t, rep.Apps[0], "drop")
	if sent != 1.05 || installed != 1.055 {
		t.Errorf("report: drop rule sent %.3f s, installed %.3f s; want 1.050 and 1.055", sent, installed)
	}
}

// TestLoadBalanceScenarioReproducesFig5ab: the shipped loadbalance
// scenario is Figure 5a-b's rhombus. The ramp drives the upper queue
// low → mid → high, the high tone sends the split, and the queue
// drains back below high once traffic takes both paths.
func TestLoadBalanceScenarioReproducesFig5ab(t *testing.T) {
	rep := loadShipped(t, "loadbalance.json")
	if len(rep.Apps) != 1 || rep.Apps[0].Type != "loadbalance" {
		t.Fatalf("apps = %+v", rep.Apps)
	}
	lb := rep.Apps[0]
	sent, _ := ruleTimes(t, lb, "split")
	if sent < 5 || sent > 11 {
		t.Errorf("split sent at %.2f s, want late in the ramp", sent)
	}
	var levels []string
	for _, e := range lb.Events {
		if !strings.HasPrefix(e, "t=") {
			levels = append(levels, e)
		}
	}
	got := strings.Join(levels, ",")
	if !strings.HasPrefix(got, "low,mid,high,") || strings.HasSuffix(got, "high") {
		t.Errorf("heard levels %q, want low, mid, high, then drained", got)
	}
	for _, h := range rep.Hosts {
		if h.Name == "h2" && h.RxPackets == 0 {
			t.Error("h2 received nothing")
		}
	}
}

// TestSketchAnalyticsMatchesExact: below capacity the count-min sketch
// and HyperLogLog stores count what the exact maps count, so a shipped
// scenario reports the same app events with analytics "sketch" on every
// counting app as with the exact maps.
func TestSketchAnalyticsMatchesExact(t *testing.T) {
	for _, name := range []string{"heavyhitter.json", "portscan.json", "superspreader.json", "ddos.json", "telemetry.json"} {
		t.Run(name, func(t *testing.T) {
			exact := loadShipped(t, name)
			events := 0
			for _, a := range exact.Apps {
				events += len(a.Events)
			}
			if events == 0 {
				t.Fatalf("exact run reports no app events: %+v", exact.Apps)
			}
			cfg := shippedConfig(t, name)
			counting := 0
			for i := range cfg.Apps {
				switch cfg.Apps[i].Type {
				case "heavyhitter", "portscan", "ddos", "superspreader":
					cfg.Apps[i].Analytics = "sketch"
					counting++
				}
			}
			if counting == 0 {
				t.Fatal("scenario has no counting app")
			}
			sketched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sketched.Apps, exact.Apps) {
				t.Errorf("sketch apps differ from exact:\n%+v\n%+v", sketched.Apps, exact.Apps)
			}
		})
	}
}
