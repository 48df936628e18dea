package main

import (
	"strings"
	"testing"
)

// Every registered experiment must be listed in the usage message — the
// usage and the runnable set derive from the same slice, so an id missing
// here means the registry itself lost an entry.
func TestUsageListsEveryExperiment(t *testing.T) {
	var b strings.Builder
	writeUsage(&b, "nope")
	usage := b.String()
	if !strings.Contains(usage, `unknown experiment "nope"`) {
		t.Fatalf("usage missing unknown-id echo: %q", usage)
	}
	for _, e := range experiments {
		if !strings.Contains(usage, " "+e.id) {
			t.Errorf("experiment %q not listed in usage: %q", e.id, usage)
		}
	}
}

func TestExperimentIDsUniqueAndRunnable(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range experiments {
		if e.id == "" || e.id == "all" {
			t.Errorf("reserved or empty experiment id %q", e.id)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.id)
		}
		if got, ok := lookupExperiment(e.id); !ok || got.id != e.id {
			t.Errorf("lookupExperiment(%q) failed", e.id)
		}
	}
	if _, ok := lookupExperiment("definitely-not-registered"); ok {
		t.Error("lookupExperiment matched an unregistered id")
	}
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		scale         string
		bursts, reps  int
		wantErr, flag string
	}{
		{"small", 4, 1, "", ""},
		{"paper", 1, 8, "", ""},
		{"huge", 4, 1, "want small or paper", "-scale"},
		{"", 4, 1, "want small or paper", "-scale"},
		{"small", 0, 1, "want at least 1", "-bursts"},
		{"small", -3, 1, "want at least 1", "-bursts"},
		{"small", 4, 0, "want at least 1", "-replications"},
		{"small", 4, -1, "want at least 1", "-replications"},
	}
	for _, c := range cases {
		err := checkFlags(c.scale, c.bursts, c.reps)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("checkFlags(%q, %d, %d) = %v, want nil", c.scale, c.bursts, c.reps, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("checkFlags(%q, %d, %d) = %v, want %s error %q", c.scale, c.bursts, c.reps, err, c.flag, c.wantErr)
		}
	}
}
