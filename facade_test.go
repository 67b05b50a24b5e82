package mdn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mdn/internal/acoustic"
	"mdn/internal/mp"
	"mdn/internal/netsim"
	"mdn/internal/openflow"
)

// TestFacadeExportsOnlyWhatExamplesUse keeps the facade small: every
// exported name in mdn.go must be used by an example program,
// example_test.go or the README, or appear in the signature of a name
// that is. Anything else belongs in its internal package only.
func TestFacadeExportsOnlyWhatExamplesUse(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "mdn.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	corpus := readFile(t, "README.md") + readFile(t, "example_test.go")
	mains, _ := filepath.Glob("examples/*/main.go")
	for _, m := range mains {
		corpus += readFile(t, m)
	}

	// sigs maps each declared name (Type.Method for methods) to the
	// part of its declaration that can need other names.
	sigs := map[string]ast.Node{}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				name = strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*") + "." + name
			}
			sigs[name], names = d.Type, append(names, name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					sigs[s.Name.Name], names = s.Type, append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						sigs[n.Name], names = s, append(names, n.Name)
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	var keep func(name string)
	keep = func(name string) {
		if kept[name] {
			return
		}
		kept[name] = true
		ast.Inspect(sigs[name], func(n ast.Node) bool {
			if _, ok := n.(*ast.SelectorExpr); ok {
				return false // another package's name
			}
			if id, ok := n.(*ast.Ident); ok && sigs[id.Name] != nil {
				keep(id.Name)
			}
			return true
		})
	}
	for _, name := range names {
		if _, method, ok := strings.Cut(name, "."); ok {
			if strings.Contains(corpus, "."+method+"(") {
				keep(name)
			}
		} else if regexp.MustCompile(`\bmdn\.` + name + `\b`).MatchString(corpus) {
			keep(name)
		}
	}
	for _, name := range names {
		if ast.IsExported(name[strings.LastIndex(name, ".")+1:]) && !kept[name] {
			t.Errorf("mdn.go exports %s, which no example, example_test.go or README uses and no used signature needs", name)
		}
	}
}

// TestFacadeConstructors exercises every facade wrapper once, so the
// public API surface stays wired to the implementation.
func TestFacadeConstructors(t *testing.T) {
	tb := NewTestbed(500)
	sw, voice := tb.AddVoicedSwitch("s1", 1, 0)

	if p := NewFrequencyPlan(400, 4000, 20); p.Capacity() != 181 {
		t.Errorf("plan capacity = %d", p.Capacity())
	}
	det := NewDetector(MethodGoertzel, []float64{500})
	if det == nil || len(det.Watch()) != 1 {
		t.Error("detector wrapper broken")
	}
	if NewOnsetFilter() == nil {
		t.Error("onset wrapper broken")
	}
	if SequenceFSM([]string{"a"}) == nil {
		t.Error("fsm wrapper broken")
	}

	ch := tb.OpenFlowChannel(sw, 0.001)
	if ch == nil || ch.Switch() != sw {
		t.Error("channel wrapper broken")
	}
	pk, err := NewPortKnock(tb.Plan, "s1", voice, ch, []uint16{1, 2}, openflow.FlowMod{})
	if err != nil || len(pk.Frequencies()) != 2 {
		t.Errorf("portknock wrapper: %v", err)
	}
	hh, err := NewHeavyHitter(tb.Plan, "s2", voice, 4)
	if err != nil || len(hh.Frequencies()) != 4 {
		t.Errorf("heavyhitter wrapper: %v", err)
	}
	ps, err := NewPortScan(tb.Plan, "s3", voice, 100, 4)
	if err != nil || len(ps.Frequencies()) != 4 {
		t.Errorf("portscan wrapper: %v", err)
	}
	fm := NewFanMonitor(tb.Mic, []float64{1050, 2100})
	if fm == nil || len(fm.Harmonics) != 2 {
		t.Error("fanmonitor wrapper broken")
	}
	sd, err := NewSpreadDetector(tb.Plan, "s4", voice, ModeDDoSVictim, netsim.MustAddr("10.0.0.1"), 4, 2)
	if err != nil || len(sd.Frequencies()) != 4 {
		t.Errorf("spread wrapper: %v", err)
	}
	// Constants re-exported sanely.
	if DefaultStride != 4 {
		t.Error("stride constant wrong")
	}
	if MethodGoertzel.String() != "goertzel" {
		t.Error("method constant wrong")
	}
	tb.EnableCulling()
	if tb.Room.CullThreshold != CullAuto {
		t.Error("EnableCulling did not select CullAuto")
	}
}

// TestFacadeModem round-trips one frame through the acoustic data
// channel using only facade exports.
func TestFacadeModem(t *testing.T) {
	tb := NewTestbed(503)
	_, voice := tb.AddVoicedSwitch("m1", 1, 0)

	cfg := DefaultModemConfig()
	fec, err := ModemFECByName("rs_p48")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FEC = fec
	band, err := NewModemBand(ModemPlan(cfg), "m1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := tb.NewController(band.Frequencies())
	tx := NewModemTransmitter(tb.Sim, band, voice)
	tx.Corruptor = NewModemCorruptor(0.02, 504)
	rx := NewModemReceiver(band)
	ctl.SubscribeWindows(rx.HandleWindow)
	ctl.Start(0)

	payload := []byte("facade modem frame")
	end, err := tx.Send(0.5, payload)
	if err != nil {
		t.Fatal(err)
	}
	tb.Sim.RunUntil(end + 0.5)

	if len(rx.Frames) != 1 {
		t.Fatalf("frames delivered = %d, want 1", len(rx.Frames))
	}
	var fr ModemFrame = rx.Frames[0]
	if string(fr.Payload) != string(payload) {
		t.Errorf("payload = %q, want %q", fr.Payload, payload)
	}
}

// TestFacadeRelay exercises the relay wrapper with real plumbing.
func TestFacadeRelay(t *testing.T) {
	tb := NewTestbed(501)
	mic2 := tb.Room.AddMicrophone("relay-mic", acoustic.Position{X: 3}, 0.0001)
	sp := tb.Room.AddSpeaker("relay-out", acoustic.Position{X: 3.5})
	pi := mp.NewPi(tb.Sim, sp, 0.001)
	relay, err := NewRelay(tb.Sim, mic2, pi, map[float64]float64{600: 1200})
	if err != nil {
		t.Fatal(err)
	}
	relay.Start(0)
	tb.Sim.RunUntil(0.2)
}
