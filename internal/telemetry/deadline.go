package telemetry

// deadlineMisses is the global miss counter ("deadline_miss_total").
var deadlineMisses = NewCounter("deadline_miss_total")

// deadlineSheds counts messages dropped at dequeue because the deadline had
// already passed ("deadline_shed_total"). A shed is NOT a miss: the work
// never ran, so it must not contribute a dispatch-latency sample or a miss
// event — conflating the two made shed storms read as latency regressions.
var deadlineSheds = NewCounter("deadline_shed_total")

// DeadlineMisses returns the total number of misses reported so far.
func DeadlineMisses() int64 { return deadlineMisses.Value() }

// DeadlineSheds returns the total number of already-dead messages shed at
// dequeue so far.
func DeadlineSheds() int64 { return deadlineSheds.Value() }

// ReportDeadlineShed counts a message dropped at dequeue because its
// deadline had already passed, and records an EvDeadlineShed event. It is
// not a miss and no dispatch latency is recorded: the message was never
// executed, so there is no handler run to observe and no latency sample to
// take.
func ReportDeadlineShed(label LabelID, deadline, detected int64, trace uint64) {
	reportLate(deadlineSheds, EvDeadlineShed, label, deadline, detected, trace)
}

// ReportDeadlineMiss counts a miss and records an EvDeadlineMiss event whose
// argument is the lateness. The dispatch path calls this instead of letting
// a late message complete silently. detected should be the moment the miss
// was noticed (conventionally Now() read just before the check).
func ReportDeadlineMiss(label LabelID, deadline, detected int64, trace uint64) {
	reportLate(deadlineMisses, EvDeadlineMiss, label, deadline, detected, trace)
}

// reportLate counts one late message on c and records a kind event whose
// argument is its lateness, never negative.
func reportLate(c *Counter, kind EventKind, label LabelID, deadline, detected int64, trace uint64) {
	c.Inc()
	if enabled.Load() {
		Default.ring.Record(kind, label, trace, 0, uint64(max(detected-deadline, 0)))
	}
}
