package openflow

import (
	"bytes"
	"testing"

	"mdn/internal/netsim"
)

// FuzzUnmarshal drives arbitrary bytes through the codec: it may not
// panic, and anything that decodes must survive a marshal→unmarshal
// round trip unchanged.
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0F, 0x4D, 1, 0, 0})
	f.Add(must(MarshalFlowMod(FlowMod{Command: FlowAdd, Priority: 7, Match: netsim.Match{DstPort: 80}, Action: netsim.Split(1, 2), IdleTimeout: 1.5})))
	f.Add(must(MarshalFlowMod(FlowMod{Command: FlowAdd, Priority: -3, Match: sampleMatch(), Action: netsim.HashSplit(4, 5, 6), HardTimeout: 30})))
	deleted := must(MarshalFlowMod(FlowMod{Command: FlowAdd, Match: netsim.Match{DstPort: 22}, Action: netsim.Drop()}))
	deleted[headerLen] = 1 // the retired delete command
	f.Add(deleted)
	corrupt := must(MarshalFlowMod(FlowMod{Command: FlowAdd, Action: netsim.Output(4)}))
	corrupt[headerLen+5+matchLen+16] = 0xEE // action kind
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := Unmarshal(data)
		if err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d", n, len(data))
			}
			reWire, mErr := MarshalFlowMod(msg.(FlowMod))
			if mErr != nil {
				t.Fatalf("decoded message does not re-marshal: %v", mErr)
			}
			if !bytes.Equal(reWire, data[:n]) {
				t.Fatalf("round trip diverged:\n in  %x\n out %x", data[:n], reWire)
			}
		}
	})
}
