package compiler

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cdl"
)

// deltaDefs declares two versions of a worker class plus the hub that hosts
// them, so class swaps and rewires both have material to diff.
const deltaDefs = `
<ComponentDefinitions>
  <Component>
    <ComponentName>Hub</ComponentName>
    <Port><PortName>feedA</PortName><PortType>Out</PortType><MessageType>Int</MessageType></Port>
    <Port><PortName>feedB</PortName><PortType>Out</PortType><MessageType>Int</MessageType></Port>
    <Port><PortName>collect</PortName><PortType>In</PortType><MessageType>Int</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>WorkerV1</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Int</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>WorkerV2</ComponentName>
    <Port><PortName>in</PortName><PortType>In</PortType><MessageType>Int</MessageType></Port>
  </Component>
</ComponentDefinitions>`

// deltaApp builds the CCL document for a hub with two worker children; the
// class of worker W and the destinations of feedA are parameterised so
// tests can produce variants.
func deltaApp(workerClass, feedADest string, memW int) string {
	return fmt.Sprintf(`
<Application>
  <ApplicationName>Delta</ApplicationName>
  <Component>
    <InstanceName>H</InstanceName>
    <ClassName>Hub</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port>
        <PortName>feedA</PortName>
        <Link><PortType>Internal</PortType><ToComponent>%s</ToComponent><ToPort>in</ToPort></Link>
      </Port>
      <Port>
        <PortName>feedB</PortName>
        <Link><PortType>Internal</PortType><ToComponent>X</ToComponent><ToPort>in</ToPort></Link>
      </Port>
      <Port>
        <PortName>collect</PortName>
        <PortAttributes><BufferSize>4</BufferSize><Threadpool>Shared</Threadpool><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize></PortAttributes>
      </Port>
    </Connection>
    <Component>
      <InstanceName>W</InstanceName>
      <ClassName>%s</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>%d</MemorySize>
    </Component>
    <Component>
      <InstanceName>X</InstanceName>
      <ClassName>WorkerV1</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
  </Component>
</Application>`, feedADest, workerClass, memW)
}

func deltaDefinitions(t *testing.T) *cdl.Definitions {
	t.Helper()
	defs, err := cdl.Parse(strings.NewReader(deltaDefs))
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func compileDelta(t *testing.T, doc string) *Plan {
	t.Helper()
	plan, err := Compile(deltaDefinitions(t), mustApp(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestDiffEmptyForIdenticalPlans(t *testing.T) {
	a := compileDelta(t, deltaApp("WorkerV1", "W", 16384))
	b := compileDelta(t, deltaApp("WorkerV1", "W", 16384))
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 0 {
		t.Fatalf("identical plans produced steps: %+v", d.Steps)
	}
}

func TestDiffClassChangeBecomesSwap(t *testing.T) {
	a := compileDelta(t, deltaApp("WorkerV1", "W", 16384))
	b := compileDelta(t, deltaApp("WorkerV2", "W", 16384))
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 1 {
		t.Fatalf("steps = %+v, want one swap", d.Steps)
	}
	s := d.Steps[0]
	if s.Op != OpSwapChild || s.Parent != "H" || s.Child != "W" {
		t.Fatalf("step = %+v", s)
	}
}

func TestDiffMemoryChangeBecomesSwap(t *testing.T) {
	a := compileDelta(t, deltaApp("WorkerV1", "W", 16384))
	b := compileDelta(t, deltaApp("WorkerV1", "W", 32768))
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 1 || d.Steps[0].Op != OpSwapChild || d.Steps[0].Child != "W" {
		t.Fatalf("steps = %+v, want one swap of W", d.Steps)
	}
}

func TestDiffDestChangeBecomesRewire(t *testing.T) {
	a := compileDelta(t, deltaApp("WorkerV1", "W", 16384))
	b := compileDelta(t, deltaApp("WorkerV1", "X", 16384)) // feedA now feeds X
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 1 {
		t.Fatalf("steps = %+v, want one rewire", d.Steps)
	}
	s := d.Steps[0]
	if s.Op != OpRewire || s.Mediator != "H" || s.Port != "H.feedA" {
		t.Fatalf("step = %+v", s)
	}
	if len(s.Dests) != 1 || s.Dests[0] != "X.in" {
		t.Fatalf("dests = %v", s.Dests)
	}
}

func TestDiffOrdersSwapsBeforeRewires(t *testing.T) {
	a := compileDelta(t, deltaApp("WorkerV1", "W", 16384))
	b := compileDelta(t, deltaApp("WorkerV2", "X", 16384)) // swap W AND rewire feedA
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 2 {
		t.Fatalf("steps = %+v, want swap then rewire", d.Steps)
	}
	if d.Steps[0].Op != OpSwapChild || d.Steps[1].Op != OpRewire {
		t.Fatalf("order = %v then %v, want swap-child then rewire", d.Steps[0].Op, d.Steps[1].Op)
	}
}

// TestDiffRejectsIllegal covers the rejection catalogue: everything a live
// assembly cannot absorb must fail Diff with ErrIllegalDelta.
func TestDiffRejectsIllegal(t *testing.T) {
	base := deltaApp("WorkerV1", "W", 16384)

	cases := []struct {
		name string
		edit func(doc string) string
	}{
		{"instance removed", func(doc string) string {
			// Drop X and the feedB port that links to it, so the variant
			// still compiles — the delta must still refuse the removal.
			doc = strings.Replace(doc, `      <Port>
        <PortName>feedB</PortName>
        <Link><PortType>Internal</PortType><ToComponent>X</ToComponent><ToPort>in</ToPort></Link>
      </Port>
`, "", 1)
			return strings.Replace(doc, `    <Component>
      <InstanceName>X</InstanceName>
      <ClassName>WorkerV1</ClassName>
      <ComponentType>Scoped</ComponentType>
      <MemorySize>16384</MemorySize>
    </Component>
`, "", 1)
		}},
		{"app renamed", func(doc string) string {
			return strings.Replace(doc, "<ApplicationName>Delta</ApplicationName>", "<ApplicationName>Other</ApplicationName>", 1)
		}},
		{"top-level attrs changed", func(doc string) string {
			return strings.Replace(doc, "<ClassName>Hub</ClassName>",
				"<ClassName>Hub</ClassName>\n    <MemorySize>4096</MemorySize>", 1)
		}},
		{"port attrs changed", func(doc string) string {
			return strings.Replace(doc, "<BufferSize>4</BufferSize>", "<BufferSize>8</BufferSize>", 1)
		}},
		{"placement changed", func(doc string) string {
			return strings.Replace(doc, "<ComponentType>Immortal</ComponentType>",
				"<ComponentType>Immortal</ComponentType>\n    <Node>n2</Node>", 1)
		}},
	}
	a := compileDelta(t, base)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edited := tc.edit(base)
			if edited == base {
				t.Fatal("edit was a no-op; test bug")
			}
			b := compileDelta(t, edited)
			if _, err := Diff(a, b); !errors.Is(err, ErrIllegalDelta) {
				t.Fatalf("Diff = %v, want ErrIllegalDelta", err)
			}
		})
	}
}

func TestDiffAdditiveRewireOrderedFirst(t *testing.T) {
	one := deltaApp("WorkerV1", "W", 16384)
	// Variant: feedA fans out to both workers (additive), feedB loses X
	// (cut). Additive must come before the cut.
	both := strings.Replace(one, `<PortName>feedA</PortName>
        <Link><PortType>Internal</PortType><ToComponent>W</ToComponent><ToPort>in</ToPort></Link>`,
		`<PortName>feedA</PortName>
        <Link><PortType>Internal</PortType><ToComponent>W</ToComponent><ToPort>in</ToPort></Link>
        <Link><PortType>Internal</PortType><ToComponent>X</ToComponent><ToPort>in</ToPort></Link>`, 1)
	a := compileDelta(t, one)
	b := compileDelta(t, both)
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 1 || d.Steps[0].Op != OpRewire {
		t.Fatalf("steps = %+v", d.Steps)
	}
	if !coversAll(d.Steps[0].Dests, []string{"W.in", "X.in"}) {
		t.Fatalf("dests = %v, want both workers", d.Steps[0].Dests)
	}

	// And the reverse direction is a cut, still a single legal rewire.
	back, err := Diff(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Steps) != 1 || back.Steps[0].Op != OpRewire || len(back.Steps[0].Dests) != 1 {
		t.Fatalf("reverse steps = %+v", back.Steps)
	}
}
