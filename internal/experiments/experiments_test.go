package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

func TestPingPongRoundTrip(t *testing.T) {
	pp, err := NewPingPong(PingPongConfig{Synchronous: true, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	for i := int64(1); i <= 10; i++ {
		got, err := pp.RoundTrip(i)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if got != i+1 {
			t.Errorf("round trip %d = %d, want %d", i, got, i+1)
		}
	}
	if n, err := pp.app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

func TestPingPongAsyncPools(t *testing.T) {
	pp, err := NewPingPong(PingPongConfig{Synchronous: false, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	for i := int64(1); i <= 5; i++ {
		got, err := pp.RoundTrip(i)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if got != i+1 {
			t.Errorf("round trip %d = %d", i, got)
		}
	}
}

func TestPingPongMechanisms(t *testing.T) {
	for _, mech := range []core.Mechanism{
		core.MechanismSharedObject, core.MechanismSerialization, core.MechanismHandoff,
	} {
		t.Run(mech.String(), func(t *testing.T) {
			pp, err := NewPingPong(PingPongConfig{
				Synchronous: true, Persistent: true, Mechanism: mech,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pp.Close()
			got, err := pp.RoundTrip(41)
			if err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Errorf("got %d, want 42", got)
			}
		})
	}
}

// TestRunTable2Shape checks the table's rows and sample counts. The jitter
// ordering between the platforms is a property of their seeded noise models,
// pinned in virtual time by platform's TestJitterOrdering; measured on the
// wall clock here, host noise would decide it.
func TestRunTable2Shape(t *testing.T) {
	rows, err := RunTable2(50, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Summary.Count != 400 {
			t.Errorf("%s count = %d", r.Platform, r.Summary.Count)
		}
		if len(r.Samples) != 400 {
			t.Errorf("%s samples = %d", r.Platform, len(r.Samples))
		}
	}
}

func TestRunFig11Shape(t *testing.T) {
	points, err := RunFig11([]int{32, 1024}, 30, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	get := func(orbName string, size int) *Fig11Point {
		for i := range points {
			if points[i].ORB == orbName && points[i].Size == size {
				return &points[i]
			}
		}
		t.Fatalf("missing point %s/%d", orbName, size)
		return nil
	}
	comp32 := get("CompadresORB", 32)
	zen32 := get("RTZen", 32)
	comp1k := get("CompadresORB", 1024)
	zen1k := get("RTZen", 1024)

	// The framework costs something, but the hand-coded ORB must not come
	// out slower by a large factor at any size (the paper reports "only
	// minor time overhead").
	if comp32.Summary.Median < zen32.Summary.Median {
		t.Logf("note: Compadres faster than RTZen at 32B (%v vs %v)", comp32.Summary.Median, zen32.Summary.Median)
	}
	if comp32.Summary.Median > 20*zen32.Summary.Median {
		t.Errorf("Compadres/RTZen ratio too large at 32B: %v vs %v", comp32.Summary.Median, zen32.Summary.Median)
	}
	// Latency grows with message size for both ORBs.
	if comp1k.Summary.Median < comp32.Summary.Median/2 {
		t.Errorf("Compadres 1KB (%v) unexpectedly below 32B (%v)", comp1k.Summary.Median, comp32.Summary.Median)
	}
	if zen1k.Summary.Median < zen32.Summary.Median/2 {
		t.Errorf("RTZen 1KB (%v) unexpectedly below 32B (%v)", zen1k.Summary.Median, zen32.Summary.Median)
	}
}

func TestAblationCrossScope(t *testing.T) {
	rows, err := RunAblationCrossScope(20, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// Serialization pays encode+copy+decode per hop; it must not beat the
	// shared object.
	if byName["serialization"].Summary.Median < byName["shared-object"].Summary.Median {
		t.Errorf("serialization (%v) beat shared-object (%v)",
			byName["serialization"].Summary.Median, byName["shared-object"].Summary.Median)
	}
}

func TestAblationScopePool(t *testing.T) {
	rows, err := RunAblationScopePool(20, 200)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// Pooled scopes skip creating an area and committing its first segment;
	// fresh scopes must not be faster.
	if byName["fresh-scopes"].Summary.Median < byName["scope-pool"].Summary.Median {
		t.Errorf("fresh scopes (%v) beat the scope pool (%v)",
			byName["fresh-scopes"].Summary.Median, byName["scope-pool"].Summary.Median)
	}
}

func TestAblationShadowPort(t *testing.T) {
	// The shadow port saves one hop, a margin of well under a microsecond;
	// on a contended host the medians can cross in a single small run, so
	// the ordering must hold in at least one of a few attempts.
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		rows, err := RunAblationShadowPort(20, 500)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]AblationRow{}
		for _, r := range rows {
			byName[r.Variant] = r
		}
		// The shadow port saves a hop; the relay must not be faster.
		if byName["parent-relay"].Summary.Median >= byName["shadow-port"].Summary.Median {
			return
		}
		lastErr = fmt.Sprintf("parent relay (%v) beat the shadow port (%v)",
			byName["parent-relay"].Summary.Median, byName["shadow-port"].Summary.Median)
		t.Logf("attempt %d: %s", attempt, lastErr)
	}
	t.Error(lastErr)
}
