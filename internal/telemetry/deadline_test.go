package telemetry

import "testing"

// ReportDeadlineShed counts on the shed counter only: no miss counter
// movement and an EvDeadlineShed (not
// EvDeadlineMiss) ring event. Shed work never executed, so treating it as
// a miss (or as dispatch latency) would poison every latency-driven control
// loop downstream.
func TestReportDeadlineShedIsNotAMiss(t *testing.T) {
	was := Enabled()
	Enable(true)
	defer Enable(was)

	missesBefore := DeadlineMisses()
	shedsBefore := DeadlineSheds()
	label := Label("shed.port")
	ReportDeadlineShed(label, 100, 250, 7)

	if got := DeadlineSheds(); got != shedsBefore+1 {
		t.Errorf("DeadlineSheds = %d, want %d", got, shedsBefore+1)
	}
	if got := DeadlineMisses(); got != missesBefore {
		t.Errorf("DeadlineMisses moved to %d (was %d)", got, missesBefore)
	}
	var sawShed bool
	for _, ev := range Default.Ring().Snapshot() {
		if ev.Label != "shed.port" {
			continue
		}
		if ev.Kind == EvDeadlineMiss {
			t.Error("shed recorded an EvDeadlineMiss ring event")
		}
		if ev.Kind == EvDeadlineShed {
			sawShed = true
			if ev.Arg != 150 {
				t.Errorf("EvDeadlineShed lateness arg = %d, want 150", ev.Arg)
			}
		}
	}
	if !sawShed {
		t.Error("no EvDeadlineShed ring event recorded")
	}
	if got := EvDeadlineShed.String(); got != "deadline_shed" {
		t.Errorf("EvDeadlineShed.String() = %q", got)
	}
}
