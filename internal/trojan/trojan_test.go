package trojan

import (
	"strings"
	"testing"

	"superpose/internal/bench"
	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/oracle"
	"superpose/internal/scan"
	"superpose/internal/sim"
	"superpose/internal/stats"
)

const hostSrc = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
f0 = DFF(d0)
f1 = DFF(d1)
g1 = AND(a, b)
g2 = AND(g1, c)
g3 = AND(g2, f0)
g4 = OR(a, f1)
d0 = XOR(g4, g3)
d1 = NAND(g4, b)
z = OR(g3, d1)
`

func parseHost(t testing.TB) *netlist.Netlist {
	t.Helper()
	n, err := bench.Parse(strings.NewReader(hostSrc), "host")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func basicSpec() Spec {
	return Spec{
		Name:            "t1",
		TriggerNets:     []string{"g2", "g3"},
		TriggerPolarity: []bool{true, true},
		VictimNet:       "d1",
		TreeArity:       2,
	}
}

func TestInsertPreservesHostIDs(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < host.NumGates(); id++ {
		name := host.NameOf(id)
		iid, ok := inst.Infected.GateID(name)
		if !ok || iid != id {
			t.Fatalf("host gate %q: ID %d became %d", name, id, iid)
		}
		if inst.Infected.Gates[id].Type != host.Gates[id].Type {
			t.Fatalf("host gate %q changed type", name)
		}
	}
	if inst.Infected.NumGates() <= host.NumGates() {
		t.Fatal("no Trojan gates added")
	}
}

func TestInsertGroundTruth(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Every trojan gate is flagged; no host gate is.
	for _, id := range inst.TrojanGates {
		if !inst.IsTrojanGate(id) {
			t.Errorf("gate %d not flagged", id)
		}
		if id < host.NumGates() {
			t.Errorf("host gate %d listed as Trojan", id)
		}
	}
	for id := 0; id < host.NumGates(); id++ {
		if inst.IsTrojanGate(id) {
			t.Errorf("host gate %d flagged as Trojan", id)
		}
	}
	if !inst.IsTrojanGate(inst.TriggerOut) || !inst.IsTrojanGate(inst.PayloadOut) {
		t.Error("trigger/payload must be Trojan gates")
	}
	// 2 taps, arity 2 -> one AND + one payload XOR = 2 gates.
	if len(inst.TrojanGates) != 2 {
		t.Errorf("TrojanGates = %d, want 2", len(inst.TrojanGates))
	}
	if got := inst.CountTrojanToggles([]int{0, inst.PayloadOut, inst.TriggerOut}); got != 2 {
		t.Errorf("CountTrojanToggles = %d, want 2", got)
	}
}

func TestPayloadSplice(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	inf := inst.Infected
	d1, _ := inf.GateID("d1")
	// Former readers of d1 (f1's D pin and z) must now read the payload.
	f1, _ := inf.GateID("f1")
	if inf.Gates[f1].Fanin[0] != inst.PayloadOut {
		t.Error("f1 must read the payload")
	}
	z, _ := inf.GateID("z")
	found := false
	for _, f := range inf.Gates[z].Fanin {
		if f == inst.PayloadOut {
			found = true
		}
		if f == d1 {
			t.Error("z still reads the bare victim")
		}
	}
	if !found {
		t.Error("z must read the payload")
	}
	// The payload itself reads the victim.
	if inf.Gates[inst.PayloadOut].Fanin[0] != d1 {
		t.Error("payload must read the victim")
	}
}

// TestDormantTrojanIsFunctionallyInvisible is the defining property of the
// threat model: with the trigger off, infected and host circuits compute
// identical functions.
func TestDormantTrojanIsFunctionallyInvisible(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	hostSim := sim.New(host)
	infSim := sim.New(inst.Infected)
	hsrc := hostSim.SourceWords()
	isrc := infSim.SourceWords()

	// Drive identical random values (host IDs == infected IDs for sources).
	seed := uint64(12345)
	for _, id := range append(append([]int{}, host.PIs...), host.FFs...) {
		seed = seed*6364136223846793005 + 1442695040888963407
		hsrc[id] = logic.Word(seed)
		isrc[id] = logic.Word(seed)
	}
	hv := hostSim.Run(hsrc)
	iv := infSim.Run(isrc)

	trig := iv[inst.TriggerOut]
	for _, po := range host.POs {
		// Lanes with the trigger off must match exactly.
		if (hv[po]^iv[po])&^trig != 0 {
			t.Errorf("PO %s differs while trigger is off", host.NameOf(po))
		}
	}
	// And with the trigger on, the payload corrupts the victim: the
	// infected victim-reader value is the XOR of victim and trigger.
	d1, _ := host.GateID("d1")
	if got, want := iv[inst.PayloadOut], iv[d1]^trig; got != want {
		t.Error("payload must XOR the victim with the trigger")
	}
}

func TestTriggerActive(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(inst.Infected)
	src := s.SourceWords()
	// g2 = AND(a,b,c...) actually g2=AND(g1,c), g1=AND(a,b); g3=AND(g2,f0).
	// Set a=b=c=1, f0=1 -> g2=1, g3=1 -> trigger on (lane 0).
	for _, name := range []string{"a", "b", "c", "f0"} {
		id, _ := inst.Infected.GateID(name)
		src[id] = 1
	}
	vals := s.Run(src)
	if !inst.TriggerActive(vals, 0) {
		t.Error("trigger must fire with all taps at rare value")
	}
	// Clear one tap condition.
	cID, _ := inst.Infected.GateID("c")
	src[cID] = 0
	vals = s.Run(src)
	if inst.TriggerActive(vals, 0) {
		t.Error("trigger must not fire with a tap off")
	}
}

func TestSpecValidate(t *testing.T) {
	good := basicSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Name: "e1", VictimNet: "x"}, // no taps
		{Name: "e2", TriggerNets: []string{"a"}, TriggerPolarity: []bool{true, false}, VictimNet: "x"},        // shape
		{Name: "e3", TriggerNets: []string{"a"}, TriggerPolarity: []bool{true}},                               // no victim
		{Name: "e4", TriggerNets: []string{"a"}, TriggerPolarity: []bool{true}, VictimNet: "x", TreeArity: 1}, // arity
		{Name: "e5", TriggerNets: []string{"x"}, TriggerPolarity: []bool{true}, VictimNet: "x"},               // loop
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %s must fail validation", s.Name)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	host := parseHost(t)
	s := basicSpec()
	s.TriggerNets = []string{"ghost", "g3"}
	if _, err := Insert(host, s); err == nil {
		t.Error("unknown trigger net must error")
	}
	s = basicSpec()
	s.VictimNet = "ghost"
	if _, err := Insert(host, s); err == nil {
		t.Error("unknown victim net must error")
	}
}

func TestNegativePolarityAndWideTree(t *testing.T) {
	host := parseHost(t)
	s := Spec{
		Name:            "wide",
		TriggerNets:     []string{"g1", "g2", "g3", "g4", "d0"},
		TriggerPolarity: []bool{true, false, true, false, true},
		VictimNet:       "z",
		TreeArity:       4,
	}
	inst, err := Insert(host, s)
	if err != nil {
		t.Fatal(err)
	}
	// 2 inverters + first level AND(4) with one passthrough + final AND(2)
	// + payload XOR = 5 gates.
	if len(inst.TrojanGates) != 5 {
		t.Errorf("TrojanGates = %d, want 5", len(inst.TrojanGates))
	}
	// Check the trigger computes AND of conditioned taps on exhaustive sim.
	inf := inst.Infected
	s2 := sim.New(inf)
	src := s2.SourceWords()
	// Random lanes on all sources.
	seed := uint64(7)
	for _, id := range append(append([]int{}, inf.PIs...), inf.FFs...) {
		seed = seed*2862933555777941757 + 3037000493
		src[id] = logic.Word(seed)
	}
	vals := s2.Run(src)
	ids := make([]int, len(s.TriggerNets))
	for i, name := range s.TriggerNets {
		ids[i], _ = inf.GateID(name)
	}
	want := logic.AllOne
	for i, id := range ids {
		v := vals[id]
		if !s.TriggerPolarity[i] {
			v = ^v
		}
		want &= v
	}
	if vals[inst.TriggerOut] != want {
		t.Error("trigger tree does not compute the AND of conditioned taps")
	}
}

func TestSinglePositiveTapGetsBuffer(t *testing.T) {
	host := parseHost(t)
	s := Spec{
		Name:            "single",
		TriggerNets:     []string{"g3"},
		TriggerPolarity: []bool{true},
		VictimNet:       "d0",
	}
	inst, err := Insert(host, s)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsTrojanGate(inst.TriggerOut) {
		t.Error("single-tap trigger must be a Trojan-owned gate")
	}
	if inst.Infected.Gates[inst.TriggerOut].Type != netlist.Buf {
		t.Errorf("trigger type = %v, want BUF", inst.Infected.Gates[inst.TriggerOut].Type)
	}
}

func TestFindRareNets(t *testing.T) {
	host := parseHost(t)
	rare := FindRareNets(host, 64*64, 5, 0.5)
	if len(rare) == 0 {
		t.Fatal("no rare nets found")
	}
	// Sorted rarest-first.
	for i := 1; i < len(rare); i++ {
		if rare[i].Rareness < rare[i-1].Rareness {
			t.Fatal("rare nets not sorted")
		}
	}
	// g3 = AND(AND(AND(a,b),c),f0): p(1) = 1/16, should be among the rarest.
	g3, _ := host.GateID("g3")
	foundG3 := false
	for _, r := range rare[:3] {
		if r.ID == g3 {
			foundG3 = true
			if !r.RareValue {
				t.Error("g3's rare value must be 1")
			}
			if r.Rareness > 0.1 {
				t.Errorf("g3 rareness = %v", r.Rareness)
			}
		}
	}
	if !foundG3 {
		t.Error("g3 must rank among the rarest nets")
	}
	// No PIs in the list.
	for _, r := range rare {
		if host.Gates[r.ID].Type == netlist.Input {
			t.Error("PIs must not be trigger candidates")
		}
	}
	// Threshold respected.
	narrow := FindRareNets(host, 64*64, 5, 0.1)
	for _, r := range narrow {
		if r.Rareness > 0.1 {
			t.Errorf("net %s rareness %v exceeds threshold", r.Name, r.Rareness)
		}
	}
}

func TestBuildSpec(t *testing.T) {
	host := parseHost(t)
	rare := FindRareNets(host, 64*64, 5, 0.5)
	s, err := BuildSpec("auto", rare, 2, "d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TriggerNets) != 2 {
		t.Fatalf("taps = %v", s.TriggerNets)
	}
	for _, tap := range s.TriggerNets {
		if tap == "d1" {
			t.Error("victim must not be a tap")
		}
	}
	if _, err := Insert(host, s); err != nil {
		t.Fatal(err)
	}
	// Too many taps requested.
	if _, err := BuildSpec("big", rare[:1], 5, "d1"); err == nil {
		t.Error("expected error when not enough rare nets")
	}
}

func TestTapAncestors(t *testing.T) {
	host := parseHost(t)
	anc, err := TapAncestors(host, []string{"g3"})
	if err != nil {
		t.Fatal(err)
	}
	// g3 = AND(g2, f0); g2 = AND(g1, c); g1 = AND(a, b).
	for _, name := range []string{"g3", "g2", "g1", "a", "b", "c", "f0"} {
		id, _ := host.GateID(name)
		if !anc[id] {
			t.Errorf("%s must be a tap ancestor", name)
		}
	}
	// Traversal stops at the flip-flop: d0 feeds f0 sequentially only.
	for _, name := range []string{"d0", "d1", "g4", "z"} {
		id, _ := host.GateID(name)
		if anc[id] {
			t.Errorf("%s must not be a combinational tap ancestor", name)
		}
	}
	if _, err := TapAncestors(host, []string{"ghost"}); err == nil {
		t.Error("unknown tap must error")
	}
}

func TestInsertDetectsPayloadCycle(t *testing.T) {
	// Victim upstream of a tap: payload loops back into the trigger and
	// the infected netlist must be rejected at build time.
	host := parseHost(t)
	s := Spec{
		Name:            "loop",
		TriggerNets:     []string{"g3"},
		TriggerPolarity: []bool{true},
		VictimNet:       "g1", // g1 feeds g2 feeds g3: cycle through payload
	}
	if _, err := Insert(host, s); err == nil {
		t.Fatal("expected combinational-cycle error")
	}
}

func TestMultiPayload(t *testing.T) {
	host := parseHost(t)
	s := Spec{
		Name:            "multi",
		TriggerNets:     []string{"g2", "g3"},
		TriggerPolarity: []bool{true, true},
		VictimNet:       "d1",
		ExtraVictims:    []string{"z"},
		TreeArity:       2,
	}
	inst, err := Insert(host, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.PayloadOuts) != 2 {
		t.Fatalf("PayloadOuts = %d, want 2", len(inst.PayloadOuts))
	}
	if inst.PayloadOuts[0] != inst.PayloadOut {
		t.Error("primary payload must head the list")
	}
	// Both payloads are trojan gates reading their own victims.
	inf := inst.Infected
	d1, _ := inf.GateID("d1")
	z, _ := inf.GateID("z")
	if inf.Gates[inst.PayloadOuts[0]].Fanin[0] != d1 {
		t.Error("payload 0 must read d1")
	}
	if inf.Gates[inst.PayloadOuts[1]].Fanin[0] != z {
		t.Error("payload 1 must read z")
	}
	// 1 AND + 2 payloads.
	if len(inst.TrojanGates) != 3 {
		t.Errorf("TrojanGates = %d, want 3", len(inst.TrojanGates))
	}
	// Dormant invisibility still holds: z's reader set... z is a PO; the
	// PO marking must have survived on the original net.
	if !inf.IsPO(z) {
		t.Error("PO marking lost")
	}
}

func TestMultiPayloadValidation(t *testing.T) {
	s := Spec{
		Name:            "dup",
		TriggerNets:     []string{"a"},
		TriggerPolarity: []bool{true},
		VictimNet:       "x",
		ExtraVictims:    []string{"x"},
	}
	if err := s.Validate(); err == nil {
		t.Error("duplicate victims must fail validation")
	}
	s.ExtraVictims = []string{""}
	if err := s.Validate(); err == nil {
		t.Error("empty extra victim must fail validation")
	}
	s.ExtraVictims = []string{"a"}
	if err := s.Validate(); err == nil {
		t.Error("tap as extra victim must fail validation")
	}
}

func TestActivationProbability(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Trigger = AND(g2, g3) = AND over {a,b,c,f0} conjunctions: g3 alone
	// implies g2, so p(trigger) = p(g3) = 1/16.
	p := inst.ActivationProbability(64*256, 5)
	if p < 0.045 || p > 0.08 {
		t.Errorf("activation probability = %v, want ~1/16", p)
	}
	// Deterministic per seed.
	if p != inst.ActivationProbability(64*256, 5) {
		t.Error("same seed must reproduce the estimate")
	}
}

// TestDormantTrojanInvisibleOverManyCycles extends the single-evaluation
// invisibility check to mission-mode operation: 64 random input sequences
// run for many cycles, and every cycle where the trigger stayed off must
// produce identical primary outputs.
func TestDormantTrojanInvisibleOverManyCycles(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	good := oracle.NewSeq(host)
	bad := oracle.NewSeq(inst.Infected)
	seed := uint64(7)
	next := func() logic.Word {
		seed = seed*6364136223846793005 + 1442695040888963407
		return logic.Word(seed)
	}
	for cycle := 0; cycle < 200; cycle++ {
		pi := []logic.Word{next(), next(), next()}
		og := good.Clock(pi)
		ob := bad.Clock(pi)
		trig := bad.Value(inst.TriggerOut)
		for i := range og {
			if (og[i]^ob[i])&^trig != 0 {
				t.Fatalf("cycle %d: outputs differ on a trigger-off lane", cycle)
			}
		}
		// Once state diverges via a fired payload, later cycles may differ
		// even with the trigger off; stop at the first firing.
		if trig != 0 {
			return
		}
	}
}

func sequentialSpec(depth int) Spec {
	s := basicSpec()
	s.Name = "seq"
	s.SequentialDepth = depth
	return s
}

func TestSequentialTrojanStructure(t *testing.T) {
	host := parseHost(t)
	inst, err := Insert(host, sequentialSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.CounterFFs) != 3 {
		t.Fatalf("counter cells = %d, want 3", len(inst.CounterFFs))
	}
	inf := inst.Infected
	for _, c := range inst.CounterFFs {
		if !inf.IsNoScan(c) {
			t.Errorf("counter cell %s must be NoScan", inf.NameOf(c))
		}
		if !inst.IsTrojanGate(c) {
			t.Errorf("counter cell %s must be a Trojan gate", inf.NameOf(c))
		}
	}
	// The scan view must exclude the hidden cells.
	if got, want := len(inf.ScanFFs()), len(host.FFs); got != want {
		t.Errorf("scannable cells = %d, want %d", got, want)
	}
	if inst.TriggerOut == inst.EventOut {
		t.Error("sequential trigger must differ from the event detector")
	}
}

func TestSequentialTrojanCountsToTerminal(t *testing.T) {
	// Mission mode: hold the rare event active; the payload must fire
	// exactly when the counter reaches terminal count (2^k - 1 more
	// cycles after the state first shows all-ones... precisely: trigger
	// = AND(counter bits) becomes 1 when the counter value is 2^k-1).
	host := parseHost(t)
	const depth = 3
	inst, err := Insert(host, sequentialSpec(depth))
	if err != nil {
		t.Fatal(err)
	}
	s := oracle.NewSeq(inst.Infected)
	// Drive a=b=c=1, f0 state=1 so g2=g3=1 -> event on, every cycle.
	ids := map[string]int{}
	for _, name := range []string{"a", "b", "c"} {
		ids[name], _ = inst.Infected.GateID(name)
	}
	f0, _ := inst.Infected.GateID("f0")
	s.LoadState(f0, logic.AllOne)
	pi := make([]logic.Word, len(inst.Infected.PIs))
	for i := range pi {
		pi[i] = logic.AllOne
	}
	firedAt := -1
	for cycle := 1; cycle <= 20; cycle++ {
		// Keep f0 pinned (its D would otherwise change it).
		s.LoadState(f0, logic.AllOne)
		s.Clock(pi)
		if s.Value(inst.TriggerOut)&1 != 0 && firedAt < 0 {
			firedAt = cycle
		}
	}
	// Counter starts at 0 and increments every cycle; all-ones (7) is
	// reached at the start of cycle 8's evaluation.
	if firedAt != 8 {
		t.Errorf("trigger fired at cycle %d, want 8", firedAt)
	}
}

func TestSequentialTrojanFrozenDuringTest(t *testing.T) {
	// Test mode: no capture pulses reach the hidden counter, so the full
	// trigger can never complete during the certification campaign — but
	// the event detector and counter-increment logic still switch.
	host := parseHost(t)
	inst, err := Insert(host, sequentialSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ch := scan.Configure(inst.Infected, 1)
	e := scan.NewEngine(ch)
	rng := stats.NewRNG(3)
	trojanToggles := 0
	for trial := 0; trial < 50; trial++ {
		p := ch.RandomPattern(rng)
		e.Launch([]*scan.Pattern{p}, scan.LOS)
		for _, id := range e.Toggles(0) {
			if inst.IsTrojanGate(id) {
				trojanToggles++
			}
			if id == inst.TriggerOut {
				t.Fatal("full trigger must never fire with a frozen counter")
			}
			for _, c := range inst.CounterFFs {
				if id == c {
					t.Fatal("hidden counter cell toggled during launch")
				}
			}
		}
	}
	if trojanToggles == 0 {
		t.Error("the sequential Trojan's combinational stage never switched: no power signature")
	}
}
