package platform

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestModelsOrder(t *testing.T) {
	models := Models()
	if len(models) != 3 {
		t.Fatalf("models = %d", len(models))
	}
	if models[0].Name != "Mackinac" || models[1].Name != "TimesysRI" || models[2].Name != "JDK14" {
		t.Errorf("order = %v %v %v", models[0].Name, models[1].Name, models[2].Name)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() (int64, int64, time.Duration) {
		inj := NewInjector(JDK14(), 42)
		var total time.Duration
		for i := 0; i < 2000; i++ {
			total += inj.Operation()
		}
		p, g := inj.Stats()
		return p, g, total
	}
	p1, g1, d1 := run()
	p2, g2, d2 := run()
	if p1 != p2 || g1 != g2 || d1 != d2 {
		t.Errorf("runs differ: (%d,%d,%v) vs (%d,%d,%v)", p1, g1, d1, p2, g2, d2)
	}
	if p1 == 0 || g1 == 0 {
		t.Errorf("no events injected: preempts %d, gc %d", p1, g1)
	}
}

func TestIdealInjectsNothing(t *testing.T) {
	inj := NewInjector(Model{Name: "Ideal"}, 1) // no noise
	start := time.Now()
	for i := 0; i < 10000; i++ {
		inj.Operation()
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("ideal platform spent %v on 10k ops", elapsed)
	}
	if p, g := inj.Stats(); p != 0 || g != 0 {
		t.Errorf("ideal injected events: %d, %d", p, g)
	}
	if inj.Model().Name != "Ideal" {
		t.Error("model accessor wrong")
	}
}

// TestJitterOrdering verifies the paper's Table 2 shape on the simulated
// platforms: JDK 1.4 jitter far above both RTSJ platforms, and Mackinac
// above the TimeSys RI. Jitter is computed from the pauses the seeded
// injectors report (virtual time), not from the wall clock, so host noise
// cannot reorder the models and one run decides.
func TestJitterOrdering(t *testing.T) {
	measure := func(m Model) metrics.Summary {
		inj := NewInjector(m, 7)
		samples := make([]time.Duration, 0, 3000)
		for i := 0; i < 3000; i++ {
			samples = append(samples, inj.Operation())
		}
		return metrics.Summarize(samples)
	}
	ri, mack, jdk := measure(TimesysRI()), measure(Mackinac()), measure(JDK14())
	if jdk.Jitter <= mack.Jitter {
		t.Errorf("JDK jitter %v not above Mackinac %v", jdk.Jitter, mack.Jitter)
	}
	if mack.Jitter <= ri.Jitter {
		t.Errorf("Mackinac jitter %v not above RI %v", mack.Jitter, ri.Jitter)
	}
	// The GC-driven gap should be large (order 3x+), as in Fig. 9.
	if jdk.Jitter < 2*mack.Jitter {
		t.Errorf("JDK jitter %v not clearly dominated by GC pauses (Mackinac %v)", jdk.Jitter, mack.Jitter)
	}
}

func TestUniformBounds(t *testing.T) {
	inj := NewInjector(Mackinac(), 3)
	for i := 0; i < 1000; i++ {
		d := inj.uniform(10*time.Microsecond, 20*time.Microsecond)
		if d < 10*time.Microsecond || d >= 20*time.Microsecond {
			t.Fatalf("uniform out of bounds: %v", d)
		}
	}
	if d := inj.uniform(30*time.Microsecond, 30*time.Microsecond); d != 30*time.Microsecond {
		t.Errorf("degenerate uniform = %v", d)
	}
}

func TestNextEventMeanIsPositive(t *testing.T) {
	inj := NewInjector(TimesysRI(), 9)
	for i := 0; i < 100; i++ {
		if g := inj.nextEvent(50); g < 1 || g > 100 {
			t.Fatalf("gap out of range: %d", g)
		}
	}
	if g := inj.nextEvent(0); g < 1<<29 {
		t.Errorf("disabled event gap too small: %d", g)
	}
}
