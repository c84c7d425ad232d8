package main

import (
	"strings"
	"testing"
)

// TestRunRejectsUnknownExperiments pins the mode list: the snapshot modes
// bench/ replaced are gone, and a name the harness does not know is an
// error before anything runs or any file is written.
func TestRunRejectsUnknownExperiments(t *testing.T) {
	for _, name := range []string{"bench1", "bench2", "bench3", "bench4", "bench8", "bogus"} {
		err := run(name, 1, 20, t.TempDir()+"/out.json", 1)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("run(%q) = %v, want an unknown experiment error", name, err)
		}
	}
}

func TestRunRejectsBadCounts(t *testing.T) {
	if err := run("table2", 1, 0, "", 1); err == nil {
		t.Error("-observations 0 accepted")
	}
	if err := run("table2", -1, 20, "", 1); err == nil {
		t.Error("-warmup -1 accepted")
	}
}

// TestRunPaperExperiments runs each paper table and figure end to end at a
// smoke size, so a harness that builds but fails when run is caught here.
func TestRunPaperExperiments(t *testing.T) {
	for _, name := range []string{"table2", "fig9", "fig11", "ablations"} {
		if err := run(name, 1, 20, "", 1); err != nil {
			t.Errorf("run(%q): %v", name, err)
		}
	}
}
