package telemetry

import "testing"

// ReportDeadlineShed counts on the shed counter and records one
// EvDeadlineShed ring event carrying the label, the trace and the lateness.
// It is the only deadline report: shed work never executed, so there is no
// miss counter and no dispatch-latency sample beside it to poison the
// latency-driven control loops downstream.
func TestReportDeadlineShedIsNotAMiss(t *testing.T) {
	was := Enabled()
	Enable(true)
	defer Enable(was)

	sheds := Default.Counter("deadline_shed_total")
	shedsBefore := sheds.Value()
	label := Label("shed.port")
	ReportDeadlineShed(label, 100, 250, 7)

	if got := sheds.Value(); got != shedsBefore+1 {
		t.Errorf("deadline_shed_total = %d, want %d", got, shedsBefore+1)
	}
	var seen int
	for _, ev := range Default.Ring().Snapshot() {
		if ev.Label != "shed.port" {
			continue
		}
		if ev.Kind != EvDeadlineShed {
			t.Errorf("shed recorded a %v ring event", ev.Kind)
			continue
		}
		seen++
		if ev.Trace != 7 || ev.Arg != 150 {
			t.Errorf("EvDeadlineShed = %+v, want trace 7, lateness 150", ev)
		}
	}
	if seen != 1 {
		t.Errorf("%d EvDeadlineShed events for shed.port, want 1", seen)
	}
	// A shed detected before its deadline (clock skew between readers)
	// records no negative lateness.
	ReportDeadlineShed(label, 300, 250, 0)
	if got := Default.Ring().Snapshot(); got[len(got)-1].Arg != 0 {
		t.Errorf("early shed lateness = %d, want 0", got[len(got)-1].Arg)
	}
	if got := EvDeadlineShed.String(); got != "deadline_shed" {
		t.Errorf("EvDeadlineShed.String() = %q", got)
	}
}
