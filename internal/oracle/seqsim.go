package oracle

import (
	"superpose/internal/logic"
	"superpose/internal/netlist"
	"superpose/internal/sim"
)

// SeqSimulator runs multi-cycle functional simulation of a full-scan
// netlist: each Clock call evaluates the combinational logic under the
// current state and primary inputs, then loads every flip-flop from its D
// pin. 64 independent sequences run in parallel (one per lane).
//
// The launch-based packages (scan, atpg) treat the flip-flops as test
// points; this simulator exercises the circuit as the mission mode would,
// which is how a Trojan's functional payload corruption actually
// manifests in the field.
type SeqSimulator struct {
	n     *netlist.Netlist
	sim   *sim.Simulator
	src   []logic.Word
	state []logic.Word // per-FF (indexed by gate ID)
	vals  []logic.Word // last evaluation
}

// NewSeq returns a sequential simulator with all-zero initial state.
func NewSeq(n *netlist.Netlist) *SeqSimulator {
	s := sim.New(n)
	return &SeqSimulator{
		n:     n,
		sim:   s,
		src:   s.SourceWords(),
		state: make([]logic.Word, n.NumGates()),
	}
}

// Reset clears the flip-flop state to all zeros.
func (s *SeqSimulator) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
	s.vals = nil
}

// LoadState sets the state of flip-flop gate id (all lanes).
func (s *SeqSimulator) LoadState(id int, w logic.Word) {
	s.state[id] = w
}

// State returns the current value word of flip-flop gate id.
func (s *SeqSimulator) State(id int) logic.Word { return s.state[id] }

// Clock applies one cycle: primary inputs take pi (indexed like
// Netlist.PIs), the combinational logic settles, outputs become visible
// through Values, and every flip-flop captures its D pin. It returns the
// primary-output words of the cycle, in Netlist.POs order.
func (s *SeqSimulator) Clock(pi []logic.Word) []logic.Word {
	n := s.n
	for i, id := range n.PIs {
		if i < len(pi) {
			s.src[id] = pi[i]
		} else {
			s.src[id] = 0
		}
	}
	for _, ff := range n.FFs {
		s.src[ff] = s.state[ff]
	}
	s.vals = s.sim.Run(s.src)
	out := make([]logic.Word, len(n.POs))
	for i, po := range n.POs {
		out[i] = s.vals[po]
	}
	for _, ff := range n.FFs {
		s.state[ff] = s.vals[n.Gates[ff].Fanin[0]]
	}
	return out
}

// Value returns net id's word from the last Clock evaluation.
func (s *SeqSimulator) Value(id int) logic.Word {
	if s.vals == nil {
		return 0
	}
	return s.vals[id]
}
