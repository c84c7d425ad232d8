package telemetry

// deadlineSheds counts requests dropped unrun because their queueing
// deadline had already passed ("deadline_shed_total"), process-wide. The
// work never ran, so a shed contributes no dispatch-latency sample; the
// overload controller of the server that shed it counts it on its own.
var deadlineSheds = NewCounter("deadline_shed_total")

// ReportDeadlineShed counts a request dropped unrun because its deadline had
// already passed when it came up for execution, and records an
// EvDeadlineShed event whose argument is its lateness, never negative.
// detected should be the moment the shed was decided (conventionally Now()
// read just before the check).
func ReportDeadlineShed(label LabelID, deadline, detected int64, trace uint64) {
	deadlineSheds.Inc()
	if enabled.Load() {
		Default.ring.Record(EvDeadlineShed, label, trace, 0, uint64(max(detected-deadline, 0)))
	}
}
