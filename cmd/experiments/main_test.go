package main

import (
	"strings"
	"testing"
)

func names(es []experiment) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return strings.Join(out, ",")
}

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct{ only, want string }{
		{"", names(all)},
		{" , ", names(all)},
		{"fig15", "fig15"},
		// Run order, not flag order; case and spaces are ignored, and a
		// repeated name runs once.
		{"ablations, FIG5,fig15,fig5", "fig5,fig15,ablations"},
	} {
		got, err := selectExperiments(tc.only)
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		if names(got) != tc.want {
			t.Errorf("-only %q selected %s, want %s", tc.only, names(got), tc.want)
		}
	}
}

func TestSelectExperimentsRejectsUnknownNames(t *testing.T) {
	for _, only := range []string{"ablation_governor", "fig15,nosuchname", "fig99"} {
		got, err := selectExperiments(only)
		if err == nil {
			t.Errorf("-only %q selected %s, want an error", only, names(got))
			continue
		}
		msg := err.Error()
		for _, e := range all {
			if !strings.Contains(msg, e.name) {
				t.Errorf("-only %q: error %q does not list %s", only, msg, e.name)
			}
		}
	}
	_, err := selectExperiments("fig15,nosuchname,ablation_governor")
	if err == nil || !strings.Contains(err.Error(), "ablation_governor, nosuchname;") {
		t.Errorf("error should name every unknown experiment, sorted: %v", err)
	}
}
