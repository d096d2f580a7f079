// Package oracle holds the reference implementations the production
// netlist path is held to: the map-based netlist builder, the original
// line-at-a-time .bench and token-slice Verilog parsers, and the
// multi-cycle sequential simulator. Only tests import it — the fuzz
// targets and equivalence suites assert that netlist.Builder and the
// streaming parsers agree with these gate for gate, and the Trojan tests
// use SeqSimulator as the mission-mode oracle for dormant triggers.
package oracle

import (
	"fmt"

	"superpose/internal/netlist"
)

// Builder is the map-based predecessor of netlist.Builder, with one Fanin
// slice per gate. It constructs a netlist.Netlist incrementally. It allows
// forward references (a gate may name fanins that are declared later),
// which the .bench format requires, and supports the structural edits
// Trojan insertion needs.
type Builder struct {
	name   string
	gates  []netlist.Gate
	names  []string
	byName map[string]int
	pis    []int
	pos    []string // PO net names, resolved at Build
	ffs    []int
	noScan []int // flip-flop IDs excluded from scan

	defined []bool // whether the net's gate has been declared
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		byName: make(map[string]int),
	}
}

// intern returns the ID for a net name, creating a placeholder if needed.
func (b *Builder) intern(name string) int {
	if id, ok := b.byName[name]; ok {
		return id
	}
	id := len(b.gates)
	b.gates = append(b.gates, netlist.Gate{})
	b.names = append(b.names, name)
	b.defined = append(b.defined, false)
	b.byName[name] = id
	return id
}

// AddInput declares a primary input.
func (b *Builder) AddInput(name string) (int, error) {
	id, err := b.define(name, netlist.Input, nil)
	if err != nil {
		return 0, err
	}
	b.pis = append(b.pis, id)
	return id, nil
}

// AddDFF declares a flip-flop (scan cell) whose D pin is the named net.
func (b *Builder) AddDFF(name, d string) (int, error) {
	id, err := b.define(name, netlist.DFF, []string{d})
	if err != nil {
		return 0, err
	}
	b.ffs = append(b.ffs, id)
	return id, nil
}

// AddNonScanDFF declares a flip-flop excluded from the scan chains — the
// hidden state an attacker's sequential trigger would use (scan access to
// the counter would expose it immediately).
func (b *Builder) AddNonScanDFF(name, d string) (int, error) {
	id, err := b.AddDFF(name, d)
	if err != nil {
		return 0, err
	}
	b.noScan = append(b.noScan, id)
	return id, nil
}

// AddGate declares a combinational gate computing typ over the fanin nets.
func (b *Builder) AddGate(name string, typ netlist.GateType, fanins ...string) (int, error) {
	if typ.IsSource() {
		return 0, fmt.Errorf("builder %q: use AddInput/AddDFF for %s", b.name, typ)
	}
	return b.define(name, typ, fanins)
}

func (b *Builder) define(name string, typ netlist.GateType, fanins []string) (int, error) {
	id := b.intern(name)
	if b.defined[id] {
		return 0, fmt.Errorf("builder %q: net %q defined twice", b.name, name)
	}
	b.defined[id] = true
	g := netlist.Gate{Type: typ, Fanin: make([]int, len(fanins))}
	for i, f := range fanins {
		g.Fanin[i] = b.intern(f)
	}
	b.gates[id] = g
	return id, nil
}

// MarkOutput declares the named net a primary output. The net may be
// declared later; resolution happens at Build.
func (b *Builder) MarkOutput(name string) {
	b.pos = append(b.pos, name)
}

// Has reports whether a net name has been seen (declared or referenced).
func (b *Builder) Has(name string) bool {
	_, ok := b.byName[name]
	return ok
}

// NumGates returns the number of nets seen so far.
func (b *Builder) NumGates() int { return len(b.gates) }

// FreshName returns a net name derived from prefix that does not collide
// with any existing net.
func (b *Builder) FreshName(prefix string) string {
	if !b.Has(prefix) {
		return prefix
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		if !b.Has(name) {
			return name
		}
	}
}

// Build finalizes the netlist: checks every referenced net was defined,
// resolves outputs, and freezes the structure.
func (b *Builder) Build() (*netlist.Netlist, error) {
	for id, ok := range b.defined {
		if !ok {
			return nil, fmt.Errorf("builder %q: net %q referenced but never defined", b.name, b.names[id])
		}
	}
	n := &netlist.Netlist{
		Name:  b.name,
		Gates: b.gates,
		Names: b.names,
		PIs:   b.pis,
		FFs:   b.ffs,
		// The name index is left to Netlist.GateID's lazy build: the
		// netlist's map is not reachable from outside its package.
	}
	if len(b.noScan) > 0 {
		n.NoScan = make([]bool, len(b.gates))
		for _, id := range b.noScan {
			n.NoScan[id] = true
		}
	}
	for _, po := range b.pos {
		id, ok := b.byName[po]
		if !ok {
			return nil, fmt.Errorf("builder %q: output %q never defined", b.name, po)
		}
		n.POs = append(n.POs, id)
	}
	if err := n.Freeze(); err != nil {
		return nil, err
	}
	return n, nil
}

// Clone returns a Builder pre-populated with the contents of an existing
// netlist, so that structural edits (Trojan insertion) can be layered on
// top of a frozen circuit.
func Clone(n *netlist.Netlist) *Builder {
	b := NewBuilder(n.Name)
	b.gates = make([]netlist.Gate, len(n.Gates))
	for id, g := range n.Gates {
		b.gates[id] = netlist.Gate{Type: g.Type, Fanin: append([]int(nil), g.Fanin...)}
	}
	b.names = append([]string(nil), n.Names...)
	b.defined = make([]bool, len(n.Gates))
	for i := range b.defined {
		b.defined[i] = true
	}
	b.byName = make(map[string]int, len(n.Gates))
	for id, name := range n.Names {
		b.byName[name] = id
	}
	b.pis = append([]int(nil), n.PIs...)
	b.ffs = append([]int(nil), n.FFs...)
	for id := range n.Gates {
		if n.IsNoScan(id) {
			b.noScan = append(b.noScan, id)
		}
	}
	for _, po := range n.POs {
		b.pos = append(b.pos, n.Names[po])
	}
	return b
}

// RewireReaders redirects every gate that currently reads net from so that
// it reads net to instead, except for gates listed in exclude. Primary
// output markings are preserved (a PO on from stays on from). This is the
// payload-splice primitive for Trojan insertion.
func (b *Builder) RewireReaders(from, to string, exclude ...string) error {
	fromID, ok := b.byName[from]
	if !ok {
		return fmt.Errorf("builder %q: rewire: unknown net %q", b.name, from)
	}
	toID, ok := b.byName[to]
	if !ok {
		return fmt.Errorf("builder %q: rewire: unknown net %q", b.name, to)
	}
	excluded := make(map[int]bool, len(exclude))
	for _, e := range exclude {
		id, ok := b.byName[e]
		if !ok {
			return fmt.Errorf("builder %q: rewire: unknown excluded net %q", b.name, e)
		}
		excluded[id] = true
	}
	for id := range b.gates {
		if excluded[id] || id == toID {
			continue
		}
		for slot, f := range b.gates[id].Fanin {
			if f == fromID {
				b.gates[id].Fanin[slot] = toID
			}
		}
	}
	return nil
}
