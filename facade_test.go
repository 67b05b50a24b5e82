package mdn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mdn/internal/modem"
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

// TestFacadeConstructors exercises every facade constructor once,
// and the error paths of Load and Build, so the public API stays wired
// to the implementation.
func TestFacadeConstructors(t *testing.T) {
	if p := NewFrequencyPlan(400, 4000, 20); p.Capacity() != 181 {
		t.Errorf("plan capacity = %d", p.Capacity())
	}
	if NewOnsetFilter() == nil {
		t.Error("onset wrapper broken")
	}
	if SequenceFSM([]string{"a"}) == nil {
		t.Error("fsm wrapper broken")
	}
	if DefaultStride != 4 {
		t.Error("stride constant wrong")
	}
	if _, err := Load("nonsuch.json"); err == nil {
		t.Error("Load found a scenario that does not ship")
	}
	if _, err := Build(&Config{Name: "no-switch", DurationS: 1}); err == nil {
		t.Error("Build accepted a config without a switch")
	}
	cfg, err := Load("telemetry.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Controller() == nil || w.Voice("s1") == nil || w.Voice("nonsuch") != nil {
		t.Error("World does not hand out its controller and voices by name")
	}
	if len(w.Apps) != 3 || w.Hosts["h2"] == nil || w.Switches["s1"] == nil {
		t.Errorf("World has %d apps, hosts %v, switches %v", len(w.Apps), w.Hosts, w.Switches)
	}
}

// TestFacadeSmoke exercises the public facade end to end: a voiced
// switch in a World built from a Config plays one tone, and the
// World's controller hears exactly that frequency.
func TestFacadeSmoke(t *testing.T) {
	w, err := Build(&Config{Name: "smoke", Seed: 1, DurationS: 1,
		Switches: []SwitchConfig{{Name: "s1", X: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	freqs := NewFrequencyPlan(400, 8000, 20).MustAllocate("s1", 1)
	ctrl := w.Controller()
	ctrl.Detector.AddWatch(freqs...)
	var heard []Detection
	ctrl.SubscribeWindows(func(_ float64, dets []Detection) { heard = append(heard, dets...) })
	voice := w.Voice("s1")
	w.Sim.Schedule(0.3, func() { voice.Play(freqs[0]) })
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(heard) == 0 {
		t.Fatal("facade controller heard nothing")
	}
	if math.Abs(heard[0].Frequency-freqs[0]) > 1e-9 {
		t.Errorf("heard %g, want %g", heard[0].Frequency, freqs[0])
	}
}

// TestFacadeModem round-trips one frame through the acoustic data
// channel attached to a World built through the facade, the way
// examples/acoustic-sync attaches it: the modem's tones on the
// controller's watch list, its receiver on the controller's windows
// and its transmitter on a switch's voice.
func TestFacadeModem(t *testing.T) {
	cfg := &Config{Name: "modem", Seed: 503, DurationS: 5,
		Switches: []SwitchConfig{{Name: "m1", X: 1}}}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc := modem.DefaultConfig()
	if mc.FEC, err = modem.FECByName("rs_p48"); err != nil {
		t.Fatal(err)
	}
	band, err := modem.NewBand(modem.Plan(mc), "m1", mc)
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := modem.NewTransmitter(w.Sim, band, w.Voice("m1")), modem.NewReceiver(band)
	tx.Corruptor = modem.NewCorruptor(0.02, 504)
	w.Controller().Detector.AddWatch(band.Frequencies()...)
	w.Controller().SubscribeWindows(rx.HandleWindow)

	payload := []byte("facade modem frame")
	end, err := tx.Send(0.5, payload)
	if err != nil {
		t.Fatal(err)
	}
	if end+0.3 > cfg.DurationS {
		t.Fatalf("frame ends at %g s, too close to the world's %g s", end, cfg.DurationS)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.Frames) != 1 {
		t.Fatalf("frames delivered = %d, want 1", len(rx.Frames))
	}
	if got := string(rx.Frames[0].Payload); got != string(payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
}
