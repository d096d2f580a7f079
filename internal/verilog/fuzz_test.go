package verilog

import (
	"bytes"
	"strings"
	"testing"

	"superpose/internal/netlist"
	"superpose/internal/oracle"
)

// FuzzParse exercises Parse and the oracle's original structural
// Verilog parser with arbitrary input: no panics, Parse must agree with
// the oracle gate-for-gate (or both must reject), and accepted modules
// must survive a Write/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(miniSrc)
	f.Add("module m(a);\ninput a;\nendmodule\n")
	f.Add("module m(a, z);\ninput a;\noutput z;\nnot g (z, a);\nendmodule\n")
	f.Add("module m(); endmodule")
	f.Add("module m(q);\ninput d; output q;\ndff r (.CK(ck), .Q(q), .D(d));\nendmodule\n")
	f.Add("module m(z); /* c */ input a; // x\noutput z;\nbuf g (z, a);\nendmodule\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := oracle.ParseVerilog(strings.NewReader(src), "fuzz")
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
			t.Fatalf("accepted module failed to serialize: %v", err)
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
