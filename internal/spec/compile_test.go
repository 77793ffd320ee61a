package spec

import (
	"strings"
	"testing"

	"vani/internal/workloads"
)

// TestRunTimeErrorsAreErrors: a spec that parses but fails while it runs —
// in a rank's program, with peers left waiting at a barrier, or while
// evaluating a parameter — makes workloads.Run return the failure as an
// error instead of panicking.
func TestRunTimeErrorsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"close", "version: 1\nname: bad\napp: bad\nrun:\n  - close: {}\n",
			"spec bad: rank 0: close without an open file"},
		{"barrier", "version: 1\nname: bad\napp: bad\nbarriers:\n  - b\nrun:\n" +
			"  - when: rank == 1\n    do:\n      - read:\n          total: 4096\n  - barrier:\n      name: b\n",
			"spec bad: rank 1: read/write without an open file"},
		{"param", "version: 1\nname: bad\napp: bad\nparams:\n  n:\n    expr: 1 / (nodes - nodes)\n" +
			"run:\n  - compute:\n      time: n\n",
			"division by zero"},
	} {
		doc, err := Parse([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		w := doc.Compile()
		spec := w.DefaultSpec()
		spec.Nodes, spec.RanksPerNode, spec.Scale = 2, 2, 0.01
		res, err := workloads.Run(w, spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, %v; want an error containing %q", tc.name, res, err, tc.want)
		}
	}
}
