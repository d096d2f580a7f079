package oracle

import (
	"testing"

	"superpose/internal/logic"
	"superpose/internal/netlist"
)

// buildCounter makes a 3-bit ripple-ish counter with an enable input:
//
//	b0' = b0 XOR en
//	b1' = b1 XOR (b0 AND en)
//	b2' = b2 XOR (b1 AND b0 AND en)
func buildCounter(t testing.TB) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("ctr")
	if _, err := b.AddInput("en"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := []string{"b0", "b1", "b2"}[i]
		if _, err := b.AddDFF(name, "d_"+name); err != nil {
			t.Fatal(err)
		}
	}
	mustGate := func(name string, typ netlist.GateType, in ...string) {
		t.Helper()
		if _, err := b.AddGate(name, typ, in...); err != nil {
			t.Fatal(err)
		}
	}
	mustGate("c0", netlist.And, "b0", "en")
	mustGate("c1", netlist.And, "b1", "c0")
	mustGate("d_b0", netlist.Xor, "b0", "en")
	mustGate("d_b1", netlist.Xor, "b1", "c0")
	mustGate("d_b2", netlist.Xor, "b2", "c1")
	b.MarkOutput("b2")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSequentialCounter(t *testing.T) {
	n := buildCounter(t)
	s := NewSeq(n)
	ids := make([]int, 3)
	for i, name := range []string{"b0", "b1", "b2"} {
		ids[i], _ = n.GateID(name)
	}
	read := func() int {
		v := 0
		for i, id := range ids {
			if s.State(id)&1 != 0 {
				v |= 1 << i
			}
		}
		return v
	}

	// Count 10 enabled cycles: state must run 1,2,...,10 mod 8.
	for cycle := 1; cycle <= 10; cycle++ {
		s.Clock([]logic.Word{logic.AllOne})
		if got, want := read(), cycle%8; got != want {
			t.Fatalf("cycle %d: state %d, want %d", cycle, got, want)
		}
	}
	// Disabled cycles hold state.
	before := read()
	for i := 0; i < 3; i++ {
		s.Clock([]logic.Word{0})
	}
	if read() != before {
		t.Error("disabled counter must hold")
	}
	// Reset clears.
	s.Reset()
	if read() != 0 {
		t.Error("reset must clear state")
	}
}

func TestSequentialLanesIndependent(t *testing.T) {
	// Lane 0 counts (en=1), lane 1 holds (en=0).
	n := buildCounter(t)
	s := NewSeq(n)
	b0, _ := n.GateID("b0")
	for i := 0; i < 3; i++ {
		s.Clock([]logic.Word{1}) // en set only in lane 0
	}
	if s.State(b0)&1 != 1 { // 3 mod 2
		t.Error("lane 0 must count")
	}
	if s.State(b0)&2 != 0 {
		t.Error("lane 1 must hold zero")
	}
}

func TestLoadStateAndValue(t *testing.T) {
	n := buildCounter(t)
	s := NewSeq(n)
	b2, _ := n.GateID("b2")
	s.LoadState(b2, logic.AllOne)
	if s.Value(b2) != 0 {
		t.Error("Value before any Clock must be 0")
	}
	out := s.Clock([]logic.Word{0})
	// b2 is the PO; with state loaded it reads 1 everywhere.
	if out[0] != logic.AllOne {
		t.Error("PO must reflect loaded state")
	}
	if s.Value(b2) != logic.AllOne {
		t.Error("Value must reflect the last evaluation")
	}
}

// TestSequentialTrojanPayloadFires demonstrates the functional threat: a
// dormant Trojan leaves mission-mode behaviour untouched cycle after
// cycle, until the trigger state arrives and the payload corrupts a PO.
func TestSequentialTrojanPayloadFires(t *testing.T) {
	n := buildCounter(t)
	// Hand-insert a trigger on (b0 AND b1 AND b2) == 7 corrupting b2's
	// next state: build the infected circuit from scratch.
	b := netlist.NewBuilder("ctr_troj")
	if _, err := b.AddInput("en"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b0", "b1", "b2"} {
		if _, err := b.AddDFF(name, "dt_"+name); err != nil {
			t.Fatal(err)
		}
	}
	mustGate := func(name string, typ netlist.GateType, in ...string) {
		t.Helper()
		if _, err := b.AddGate(name, typ, in...); err != nil {
			t.Fatal(err)
		}
	}
	mustGate("c0", netlist.And, "b0", "en")
	mustGate("c1", netlist.And, "b1", "c0")
	mustGate("d_b0", netlist.Xor, "b0", "en")
	mustGate("d_b1", netlist.Xor, "b1", "c0")
	mustGate("d_b2", netlist.Xor, "b2", "c1")
	mustGate("trig", netlist.And, "b0", "b1", "b2")
	mustGate("dt_b0", netlist.Buf, "d_b0")
	mustGate("dt_b1", netlist.Buf, "d_b1")
	mustGate("dt_b2", netlist.Xor, "d_b2", "trig") // payload
	b.MarkOutput("b2")
	inf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	good := NewSeq(n)
	bad := NewSeq(inf)
	diverged := -1
	for cycle := 1; cycle <= 16; cycle++ {
		og := good.Clock([]logic.Word{logic.AllOne})
		ob := bad.Clock([]logic.Word{logic.AllOne})
		if og[0]&1 != ob[0]&1 {
			diverged = cycle
			break
		}
	}
	// State 7 is reached after cycle 7; the trigger fires during cycle 8's
	// evaluation, the corrupted b2 loads at that cycle's clock edge, and
	// the PO (the flip-flop output) first shows it on cycle 9.
	if diverged != 9 {
		t.Errorf("divergence at cycle %d, want 9", diverged)
	}
}
