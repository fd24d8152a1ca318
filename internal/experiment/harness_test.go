package experiment

import (
	"strings"
	"testing"
)

// TestHarnessDeterministic builds registered simulator experiments twice
// from their seeds and requires byte-identical tables: the seed list is the
// whole of an experiment's randomness.
func TestHarnessDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulator experiments twice")
	}
	runners := make(map[string]func(bool) (*Table, error))
	for _, e := range Experiments {
		runners[e.ID] = e.Run
	}
	for _, tc := range []struct {
		id    string
		quick bool
	}{{"a1", false}, {"a13", false}, {"a17", false}, {"fig4", true}} {
		t.Run(tc.id, func(t *testing.T) {
			var out [2]string
			for i := range out {
				tab, err := runners[tc.id](tc.quick)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				if err := tab.WriteText(&b); err != nil {
					t.Fatal(err)
				}
				out[i] = b.String()
			}
			if out[0] != out[1] {
				t.Errorf("two builds differ:\n%s\n---\n%s", out[0], out[1])
			}
		})
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments {
		if seen[e.ID] || e.Run == nil {
			t.Errorf("experiment %q registered twice or without a runner", e.ID)
		}
		seen[e.ID] = true
	}
}
