package netlist

import "fmt"

// Builder constructs a Netlist incrementally. It allows forward references
// (a gate may name fanins that are declared later), which the .bench format
// requires, and supports the structural edits Trojan insertion needs.
//
// Storage is allocation-frugal so that the same builder serves the
// million-gate ingestion path: every fanin reference lands in one flat
// arena (CSR-style count-then-slice), and net names intern through a
// byte-token API that allocates only on first sight of a symbol. Two
// APIs share that storage:
//
//   - the name-based AddInput/AddDFF/AddGate/MarkOutput used by
//     generators and Trojan insertion, and
//   - the ID-based Intern/DefineInput/DefineDFF/DefineGate used by the
//     streaming parsers, which intern byte tokens straight from their
//     I/O buffers.
//
// Net IDs are assigned on first mention (definition or reference), the
// LHS of a declaration before its fanins, so a declaration sequence yields
// the same IDs whichever API it goes through. MarkOutput is deferred to
// Build: OUTPUT directives may precede the net's declaration and do
// not assign IDs.
type Builder struct {
	name   string
	names  []string
	byName map[string]int32

	typ     []GateType
	defined []bool // whether the net's gate has been declared

	// Flat fanin arena in definition order; gate id's fanins live at
	// fanin[foff[id] : foff[id]+fcnt[id]].
	fanin []int32
	foff  []int32
	fcnt  []int32

	pis    []int32
	ffs    []int32
	noScan []int32  // flip-flop IDs excluded from scan
	pos    []string // PO net names, resolved at Build
	ids    []int32  // fanin scratch of the name-based API
}

// NewBuilder returns a Builder for a netlist with the given name.
func NewBuilder(name string) *Builder { return NewSizedBuilder(name, 0) }

// NewSizedBuilder is NewBuilder with the arenas pre-sized for roughly
// sizeHint nets. Growth is amortized either way; the hint avoids the
// early doublings on multi-million-gate inputs.
func NewSizedBuilder(name string, sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{
		name:    name,
		names:   make([]string, 0, sizeHint),
		byName:  make(map[string]int32, sizeHint),
		typ:     make([]GateType, 0, sizeHint),
		defined: make([]bool, 0, sizeHint),
		foff:    make([]int32, 0, sizeHint),
		fcnt:    make([]int32, 0, sizeHint),
	}
}

// Intern returns the net ID for a name given as a byte token, creating
// an undefined placeholder on first sight. The token may point into a
// transient I/O buffer: the builder copies it only when the symbol is
// new (map lookups on string(tok) do not allocate).
func (b *Builder) Intern(tok []byte) int32 {
	if id, ok := b.byName[string(tok)]; ok {
		return id
	}
	return b.internNew(string(tok))
}

// InternString is Intern for callers that already hold a string.
func (b *Builder) InternString(name string) int32 {
	if id, ok := b.byName[name]; ok {
		return id
	}
	return b.internNew(name)
}

func (b *Builder) internNew(name string) int32 {
	id := int32(len(b.names))
	b.names = append(b.names, name)
	b.typ = append(b.typ, Input) // placeholder; set at definition
	b.defined = append(b.defined, false)
	b.foff = append(b.foff, 0)
	b.fcnt = append(b.fcnt, 0)
	b.byName[name] = id
	return id
}

func (b *Builder) define(id int32, typ GateType) error {
	if b.defined[id] {
		return b.definedTwice(id)
	}
	b.defined[id] = true
	b.typ[id] = typ
	return nil
}

// DefineInput declares net id a primary input.
func (b *Builder) DefineInput(id int32) error {
	if err := b.define(id, Input); err != nil {
		return err
	}
	b.pis = append(b.pis, id)
	return nil
}

// DefineDFF declares net id a flip-flop (scan cell) whose D pin is net d.
func (b *Builder) DefineDFF(id, d int32) error {
	if err := b.define(id, DFF); err != nil {
		return err
	}
	b.foff[id] = int32(len(b.fanin))
	b.fcnt[id] = 1
	b.fanin = append(b.fanin, d)
	b.ffs = append(b.ffs, id)
	return nil
}

// DefineGate declares net id a combinational gate computing typ over the
// fanin nets. The fanins slice is copied into the flat arena; callers
// may reuse it across calls.
func (b *Builder) DefineGate(id int32, typ GateType, fanins []int32) error {
	if typ.IsSource() {
		return b.sourceTypeError(typ)
	}
	if err := b.define(id, typ); err != nil {
		return err
	}
	b.foff[id] = int32(len(b.fanin))
	b.fcnt[id] = int32(len(fanins))
	b.fanin = append(b.fanin, fanins...)
	return nil
}

func (b *Builder) definedTwice(id int32) error {
	return fmt.Errorf("builder %q: net %q defined twice", b.name, b.names[id])
}

func (b *Builder) sourceTypeError(typ GateType) error {
	return fmt.Errorf("builder %q: use AddInput/AddDFF for %s", b.name, typ)
}

// declare interns a named declaration: the LHS first, then — unless the
// LHS is already defined, which fails before any fanin is seen — the
// fanins left to right into b.ids.
func (b *Builder) declare(name string, fanins []string) (int32, error) {
	id := b.InternString(name)
	if b.defined[id] {
		return id, b.definedTwice(id)
	}
	b.ids = b.ids[:0]
	for _, f := range fanins {
		b.ids = append(b.ids, b.InternString(f))
	}
	return id, nil
}

func declared(id int32, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return int(id), nil
}

// AddInput declares a primary input.
func (b *Builder) AddInput(name string) (int, error) {
	id, err := b.declare(name, nil)
	if err == nil {
		err = b.DefineInput(id)
	}
	return declared(id, err)
}

// AddDFF declares a flip-flop (scan cell) whose D pin is the named net.
func (b *Builder) AddDFF(name, d string) (int, error) {
	id, err := b.declare(name, []string{d})
	if err == nil {
		err = b.DefineDFF(id, b.ids[0])
	}
	return declared(id, err)
}

// AddNonScanDFF declares a flip-flop excluded from the scan chains — the
// hidden state an attacker's sequential trigger would use (scan access to
// the counter would expose it immediately).
func (b *Builder) AddNonScanDFF(name, d string) (int, error) {
	id, err := b.AddDFF(name, d)
	if err != nil {
		return 0, err
	}
	b.noScan = append(b.noScan, int32(id))
	return id, nil
}

// AddGate declares a combinational gate computing typ over the fanin nets.
func (b *Builder) AddGate(name string, typ GateType, fanins ...string) (int, error) {
	if typ.IsSource() {
		return 0, b.sourceTypeError(typ)
	}
	id, err := b.declare(name, fanins)
	if err == nil {
		err = b.DefineGate(id, typ, b.ids)
	}
	return declared(id, err)
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
func (b *Builder) NumGates() int { return len(b.names) }

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
// resolves outputs, re-lays the arena fanins into ID order behind one
// shared backing array, and freezes the structure.
func (b *Builder) Build() (*Netlist, error) {
	for id, ok := range b.defined {
		if !ok {
			return nil, fmt.Errorf("builder %q: net %q referenced but never defined", b.name, b.names[id])
		}
	}
	num := len(b.names)
	gates := make([]Gate, num)
	flat := make([]int, len(b.fanin))
	pos := 0
	for id := 0; id < num; id++ {
		g := &gates[id]
		g.Type = b.typ[id]
		cnt := int(b.fcnt[id])
		if cnt == 0 {
			continue
		}
		span := flat[pos : pos+cnt : pos+cnt]
		for i, f := range b.fanin[b.foff[id] : int(b.foff[id])+cnt] {
			span[i] = int(f)
		}
		g.Fanin = span
		pos += cnt
	}

	n := &Netlist{
		Name:  b.name,
		Gates: gates,
		Names: b.names,
		PIs:   int32sToInts(b.pis),
		FFs:   int32sToInts(b.ffs),
		// byName stays nil: Netlist.GateID builds the index lazily on
		// first lookup, so pure simulation workloads never pay for a
		// million-entry map.
	}
	if len(b.noScan) > 0 {
		n.NoScan = make([]bool, num)
		for _, id := range b.noScan {
			n.NoScan[id] = true
		}
	}
	for _, po := range b.pos {
		id, ok := b.byName[po]
		if !ok {
			return nil, fmt.Errorf("builder %q: output %q never defined", b.name, po)
		}
		n.POs = append(n.POs, int(id))
	}
	if err := n.Freeze(); err != nil {
		return nil, err
	}
	return n, nil
}

func int32sToInts(xs []int32) []int {
	if len(xs) == 0 {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// Clone returns a Builder pre-populated with the contents of an existing
// netlist, so that structural edits (Trojan insertion) can be layered on
// top of a frozen circuit.
func Clone(n *Netlist) *Builder {
	b := NewSizedBuilder(n.Name, len(n.Gates))
	for id, g := range n.Gates {
		b.internNew(n.Names[id])
		b.defined[id] = true
		b.typ[id] = g.Type
		b.foff[id] = int32(len(b.fanin))
		b.fcnt[id] = int32(len(g.Fanin))
		for _, f := range g.Fanin {
			b.fanin = append(b.fanin, int32(f))
		}
		if n.IsNoScan(id) {
			b.noScan = append(b.noScan, int32(id))
		}
	}
	for _, pi := range n.PIs {
		b.pis = append(b.pis, int32(pi))
	}
	for _, ff := range n.FFs {
		b.ffs = append(b.ffs, int32(ff))
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
	excluded := make(map[int32]bool, len(exclude))
	for _, e := range exclude {
		id, ok := b.byName[e]
		if !ok {
			return fmt.Errorf("builder %q: rewire: unknown excluded net %q", b.name, e)
		}
		excluded[id] = true
	}
	for id := range b.names {
		if excluded[int32(id)] || int32(id) == toID {
			continue
		}
		fanins := b.fanin[b.foff[id] : b.foff[id]+b.fcnt[id]]
		for slot, f := range fanins {
			if f == fromID {
				fanins[slot] = toID
			}
		}
	}
	return nil
}
