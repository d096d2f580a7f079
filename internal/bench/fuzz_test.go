package bench

import (
	"bytes"
	"strings"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/oracle"
)

// FuzzParse throws arbitrary text at Parse and the oracle's original
// .bench parser: neither may panic, Parse must agree with the oracle
// gate-for-gate (or both must reject), and anything accepted must
// survive a Write/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(s27)
	f.Add("INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n")
	f.Add("# only a comment\n")
	f.Add("x = AND(a, b)\n")
	f.Add("INPUT(a)\nx = DFF(a)\nOUTPUT(x)\n")
	f.Add("OUTPUT(z)\nINPUT(a)\nz = BUFF(a)\ny = INV(z)\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := oracle.ParseBench(strings.NewReader(src), "fuzz")
		sn, serr := Parse(strings.NewReader(src), "fuzz")
		if (err == nil) != (serr == nil) {
			t.Fatalf("parser disagreement: legacy err %v, streaming err %v\n%s", err, serr, src)
		}
		if err != nil {
			return
		}
		if d := netlist.Diff(n, sn); d != "" {
			t.Fatalf("streaming parse differs from legacy: %s\n%s", d, src)
		}
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatalf("accepted netlist failed to serialize: %v", err)
		}
		m, err := Parse(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if m.NumGates() != n.NumGates() {
			t.Fatalf("round trip changed gate count %d -> %d", n.NumGates(), m.NumGates())
		}
	})
}
