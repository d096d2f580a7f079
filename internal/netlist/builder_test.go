package netlist_test

import (
	"fmt"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/oracle"
)

// builder is the name-based construction and edit API that netlist.Builder
// and the map-based oracle.Builder share.
type builder interface {
	AddInput(name string) (int, error)
	AddDFF(name, d string) (int, error)
	AddNonScanDFF(name, d string) (int, error)
	AddGate(name string, typ netlist.GateType, fanins ...string) (int, error)
	MarkOutput(name string)
	Has(name string) bool
	FreshName(prefix string) string
	NumGates() int
	RewireReaders(from, to string, exclude ...string) error
	Build() (*netlist.Netlist, error)
}

// declOp is one step of a declaration sequence.
type declOp struct {
	kind   string // input, dff, nsdff, gate, output
	name   string
	typ    netlist.GateType
	fanins []string
}

func apply(b builder, op declOp) (int, error) {
	switch op.kind {
	case "input":
		return b.AddInput(op.name)
	case "dff":
		return b.AddDFF(op.name, op.fanins[0])
	case "nsdff":
		return b.AddNonScanDFF(op.name, op.fanins[0])
	case "gate":
		return b.AddGate(op.name, op.typ, op.fanins...)
	case "output":
		b.MarkOutput(op.name)
	}
	return 0, nil
}

// sameErr fails unless both builders failed with the same text or both
// succeeded, and reports whether they failed.
func sameErr(t *testing.T, what string, lerr, nerr error) bool {
	t.Helper()
	if (lerr == nil) != (nerr == nil) || (lerr != nil && lerr.Error() != nerr.Error()) {
		t.Fatalf("%s: oracle err %v, builder err %v", what, lerr, nerr)
	}
	return lerr != nil
}

// buildBoth drives the oracle Builder and netlist.Builder through the
// same declaration sequence and returns both results.
func buildBoth(t *testing.T, name string, ops []declOp) (*netlist.Netlist, *netlist.Netlist) {
	t.Helper()
	lb := oracle.NewBuilder(name)
	nb := netlist.NewBuilder(name)
	for _, op := range ops {
		lid, lerr := apply(lb, op)
		nid, nerr := apply(nb, op)
		if sameErr(t, fmt.Sprintf("op %+v", op), lerr, nerr) {
			return nil, nil
		}
		if lid != nid {
			t.Fatalf("op %+v: oracle id %d, builder id %d", op, lid, nid)
		}
	}
	return finish(t, lb, nb)
}

// finish builds both builders and asserts identical errors or netlists.
func finish(t *testing.T, lb, nb builder) (*netlist.Netlist, *netlist.Netlist) {
	t.Helper()
	ln, lerr := lb.Build()
	nn, nerr := nb.Build()
	if sameErr(t, "build", lerr, nerr) {
		return nil, nil
	}
	if d := netlist.Diff(ln, nn); d != "" {
		t.Fatalf("builder and oracle disagree: %s", d)
	}
	return ln, nn
}

var equivOps = []declOp{
	{kind: "input", name: "a"},
	{kind: "input", name: "b"},
	{kind: "output", name: "z"}, // marked before its gate is declared
	{kind: "dff", name: "q0", fanins: []string{"d0"}},
	{kind: "nsdff", name: "q1", fanins: []string{"d1"}},
	// Forward references: g1 reads g2 before g2 is defined.
	{kind: "gate", name: "g1", typ: netlist.Nand, fanins: []string{"a", "g2"}},
	{kind: "gate", name: "g2", typ: netlist.Nor, fanins: []string{"b", "q0", "q1"}},
	{kind: "gate", name: "z", typ: netlist.Xor, fanins: []string{"g1", "g2"}},
	{kind: "gate", name: "d0", typ: netlist.Buf, fanins: []string{"z"}},
	{kind: "gate", name: "d1", typ: netlist.Not, fanins: []string{"g1"}},
	{kind: "output", name: "g2"},
}

func TestStreamBuilderEquivalence(t *testing.T) {
	ln, sn := buildBoth(t, "equiv", equivOps)
	// Fanouts (derived by Freeze) must match too.
	for id := range ln.Gates {
		lf, sf := ln.Fanouts(id), sn.Fanouts(id)
		if len(lf) != len(sf) {
			t.Fatalf("gate %d fanout count %d vs %d", id, len(lf), len(sf))
		}
		for i := range lf {
			if lf[i] != sf[i] {
				t.Fatalf("gate %d fanouts differ: %v vs %v", id, lf, sf)
			}
		}
	}
	// Lazy name index answers the same queries.
	for id, name := range ln.Names {
		got, ok := sn.GateID(name)
		if !ok || got != id {
			t.Fatalf("GateID(%q) = %d,%v; want %d", name, got, ok, id)
		}
	}
	if _, ok := sn.GateID("no-such-net"); ok {
		t.Fatal("GateID invented a net")
	}
}

func TestStreamBuilderErrors(t *testing.T) {
	for _, ops := range [][]declOp{
		// Net defined twice.
		{{kind: "input", name: "a"}, {kind: "input", name: "a"}},
		{{kind: "input", name: "a"}, {kind: "gate", name: "a", typ: netlist.Buf, fanins: []string{"a"}}},
		// Referenced but never defined.
		{{kind: "input", name: "a"}, {kind: "gate", name: "g", typ: netlist.Buf, fanins: []string{"x"}}},
		// Output never defined.
		{{kind: "input", name: "a"}, {kind: "output", name: "zz"}},
	} {
		ln, sn := buildBoth(t, "err", ops)
		if ln != nil || sn != nil {
			t.Fatalf("ops %+v: expected both builders to fail", ops)
		}
	}
	// Source types must go through AddInput/AddDFF.
	sb := netlist.NewBuilder("src")
	if err := sb.DefineGate(sb.InternString("x"), netlist.DFF, nil); err == nil {
		t.Fatal("AddGate accepted a source type")
	}
}

// insertEdits applies the edit sequence Trojan insertion performs on a
// cloned host — fresh names, trigger gates, a hidden non-scan counter
// cell and a payload splice with exclusions — and logs every observable
// answer along the way.
func insertEdits(b builder) []string {
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	gate := func(name string, typ netlist.GateType, fanins ...string) string {
		id, err := b.AddGate(name, typ, fanins...)
		note("gate %s = %d %v", name, id, err)
		return name
	}
	note("has g1=%v nope=%v gates=%d", b.Has("g1"), b.Has("nope"), b.NumGates())
	inv := gate(b.FreshName("g1"), netlist.Not, "a") // collides: g1_0
	trig := gate(b.FreshName("trig"), netlist.And, inv, "q0")
	cell, dPin := b.FreshName("cnt"), b.FreshName("cntd")
	id, err := b.AddNonScanDFF(cell, dPin)
	note("nsdff %s(%s) = %d %v", cell, dPin, id, err)
	gate(dPin, netlist.Xor, cell, trig)
	payload := gate(b.FreshName("payload"), netlist.Xor, "g2", trig)
	note("rewire %v", b.RewireReaders("g2", payload, payload, trig, "z"))
	b.MarkOutput(payload)
	note("fresh %s %s gates=%d", b.FreshName("payload"), b.FreshName("fresh"), b.NumGates())
	return log
}

// TestBuilderEditEquivalence holds the edit API (Clone of a frozen
// netlist, then FreshName/Has/AddGate/AddNonScanDFF/RewireReaders) to
// the oracle, and checks the edits leave the cloned netlist untouched.
func TestBuilderEditEquivalence(t *testing.T) {
	base, _ := buildBoth(t, "host", equivOps)
	before := oracle.Clone(base)
	lb, nb := oracle.Clone(base), netlist.Clone(base)
	llog, nlog := insertEdits(lb), insertEdits(nb)
	if fmt.Sprint(llog) != fmt.Sprint(nlog) {
		t.Fatalf("edit logs differ:\noracle  %q\nbuilder %q", llog, nlog)
	}
	ln, nn := finish(t, lb, nb)
	if ln.NumGates() != base.NumGates()+5 || !ln.IsNoScan(base.NumGates()+2) {
		t.Fatalf("edits not applied: %d gates", ln.NumGates())
	}
	// Every reader of g2 but the excluded z and the payload itself now
	// reads the payload.
	g2, _ := nn.GateID("g2")
	z, _ := nn.GateID("z")
	payload, _ := nn.GateID("payload")
	if fo := nn.Fanouts(g2); len(fo) != 2 || fo[0] != z || fo[1] != payload {
		t.Fatalf("g2 fanouts after rewire: %v, want [%d %d]", fo, z, payload)
	}
	rebuilt, err := before.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := netlist.Diff(base, rebuilt); d != "" {
		t.Fatalf("editing a clone changed the source netlist: %s", d)
	}
}

// TestBuilderEditErrors holds the edit API's failures to the oracle's,
// text included.
func TestBuilderEditErrors(t *testing.T) {
	base, _ := buildBoth(t, "host", equivOps)
	for _, tc := range []struct {
		name string
		edit func(b builder) error
	}{
		{"defined twice", func(b builder) error { _, err := b.AddGate("g1", netlist.And, "a", "b"); return err }},
		{"dff defined twice", func(b builder) error { _, err := b.AddNonScanDFF("q0", "a"); return err }},
		{"source type", func(b builder) error { _, err := b.AddGate("x", netlist.DFF, "a"); return err }},
		{"undefined reference", func(b builder) error {
			if _, err := b.AddGate("x", netlist.Buf, "ghost"); err != nil {
				return err
			}
			_, err := b.Build()
			return err
		}},
		{"unknown output", func(b builder) error { b.MarkOutput("ghost"); _, err := b.Build(); return err }},
		{"unknown rewire source", func(b builder) error { return b.RewireReaders("ghost", "a") }},
		{"unknown rewire target", func(b builder) error { return b.RewireReaders("a", "ghost") }},
		{"unknown rewire exclusion", func(b builder) error { return b.RewireReaders("a", "b", "g1", "ghost") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lerr := tc.edit(oracle.Clone(base))
			nerr := tc.edit(netlist.Clone(base))
			if !sameErr(t, tc.name, lerr, nerr) {
				t.Fatal("edit succeeded in both builders, want an error")
			}
		})
	}
}

// Satellite regression for stack-depth hazards: a 50k-deep inverter
// chain must build, levelize, walk and simulate without recursion
// blowing the stack — every walk in the netlist core is iterative.
func TestDeepChain50k(t *testing.T) {
	const depth = 50000
	b := netlist.NewSizedBuilder("deep", depth+8)
	in := b.InternString("a")
	if err := b.DefineInput(in); err != nil {
		t.Fatal(err)
	}
	// One scan cell so the scan infrastructure has something to drive.
	ff := b.InternString("ff0")
	if err := b.DefineDFF(ff, b.InternString("d0")); err != nil {
		t.Fatal(err)
	}
	prev := in
	for i := 0; i < depth; i++ {
		id := b.InternString(fmt.Sprintf("c%d", i))
		typ := netlist.Not
		if i%2 == 1 {
			typ = netlist.Buf
		}
		if err := b.DefineGate(id, typ, []int32{prev}); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	if err := b.DefineGate(b.InternString("d0"), netlist.Buf, []int32{prev}); err != nil {
		t.Fatal(err)
	}
	b.MarkOutput(fmt.Sprintf("c%d", depth-1))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Depth(); got != depth+1 {
		t.Fatalf("depth = %d, want %d", got, depth+1)
	}

	// The full-depth cone walk must be iterative too.
	w := n.AcquireConeWalker()
	cone := w.Walk([]int{int(in)})
	if len(cone) != depth+1 {
		t.Fatalf("cone size = %d, want %d", len(cone), depth+1)
	}
	w.Release()

	// And the SoA compiles and levelizes identically.
	s := n.SoA()
	if int(s.MaxLevel) != depth+1 {
		t.Fatalf("SoA max level = %d, want %d", s.MaxLevel, depth+1)
	}
}
