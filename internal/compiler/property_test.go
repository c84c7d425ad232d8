package compiler

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ccl"
	"repro/internal/cdl"
)

// genDefs declares one universal class with an In and an Out port, which is
// all the topology properties need.
func genDefs() *cdl.Definitions {
	return &cdl.Definitions{
		Components: []cdl.Component{{
			Name: "Node",
			Ports: []cdl.Port{
				{Name: "in", Type: cdl.In, MessageType: "T"},
				{Name: "out", Type: cdl.Out, MessageType: "T"},
			},
		}},
	}
}

// genTree builds a random instance tree with the given node count and
// returns the application plus each instance's parent (by name).
func genTree(rng *rand.Rand, n int) (*ccl.Application, map[string]string) {
	parents := make(map[string]string, n)
	instances := make([]*ccl.Instance, n)
	for i := 0; i < n; i++ {
		instances[i] = &ccl.Instance{
			InstanceName: fmt.Sprintf("N%d", i),
			ClassName:    "Node",
		}
	}
	app := &ccl.Application{Name: "Prop"}
	for i, inst := range instances {
		if i == 0 || rng.Intn(4) == 0 {
			// A top-level immortal component.
			inst.Type = ccl.Immortal
			app.Components = append(app.Components, *inst)
			parents[inst.InstanceName] = ""
			continue
		}
		inst.Type = ccl.Scoped
		inst.MemorySize = 4096
		parentIdx := rng.Intn(i)
		parents[inst.InstanceName] = fmt.Sprintf("N%d", parentIdx)
	}
	// Attach scoped children to their parents (the slice copies above mean
	// we must rebuild the nesting from scratch, top-down).
	var attach func(dst *ccl.Instance)
	attach = func(dst *ccl.Instance) {
		for i := 1; i < n; i++ {
			name := fmt.Sprintf("N%d", i)
			if parents[name] == dst.InstanceName {
				child := ccl.Instance{
					InstanceName: name,
					ClassName:    "Node",
					Type:         ccl.Scoped,
					MemorySize:   4096,
				}
				dst.Children = append(dst.Children, child)
				attach(&dst.Children[len(dst.Children)-1])
			}
		}
	}
	for i := range app.Components {
		attach(&app.Components[i])
	}
	return app, parents
}

// findInstance returns the instance of app with the given name, or nil.
func findInstance(app *ccl.Application, name string) *ccl.Instance {
	var find func(insts []ccl.Instance) *ccl.Instance
	find = func(insts []ccl.Instance) *ccl.Instance {
		for i := range insts {
			if insts[i].InstanceName == name {
				return &insts[i]
			}
			if inst := find(insts[i].Children); inst != nil {
				return inst
			}
		}
		return nil
	}
	return find(app.Components)
}

// relationship classifies two instances the way the compiler must.
func relationship(parents map[string]string, from, to string) (kind ConnKind, mediator string, legal bool) {
	anc := func(a, b string) bool { // a is strict ancestor of b
		for cur := parents[b]; cur != ""; cur = parents[cur] {
			if cur == a {
				return true
			}
		}
		return false
	}
	switch {
	case parents[from] == to:
		return ConnInternal, to, true
	case parents[to] == from:
		return ConnInternal, from, true
	case parents[from] == parents[to] && parents[from] != "":
		return ConnExternal, parents[from], true
	case parents[from] == "" && parents[to] == "":
		return ConnExternal, to, true
	case anc(to, from):
		return ConnShadow, to, true
	case anc(from, to):
		return ConnShadow, from, true
	default:
		return 0, "", false
	}
}

// declaredLinkType picks the CCL spelling the compiler accepts for the
// relationship.
func declaredLinkType(kind ConnKind) ccl.LinkType {
	if kind == ConnInternal {
		return ccl.Internal
	}
	return ccl.External
}

// TestPropertyTopologyClassification generates random trees and random
// pairs, and checks that the compiler accepts exactly the legal
// relationships with the correct kind and mediator — the scoped-memory
// planning at the heart of the Compadres compiler.
func TestPropertyTopologyClassification(t *testing.T) {
	defs := genDefs()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		app, parents := genTree(rng, n)
		from := fmt.Sprintf("N%d", rng.Intn(n))
		to := fmt.Sprintf("N%d", rng.Intn(n))
		if from == to {
			continue
		}
		wantKind, wantMediator, legal := relationship(parents, from, to)

		// Declare the connection on the Out side of `from`.
		link := ccl.Link{Type: ccl.External, ToComponent: to, ToPort: "in"}
		if legal {
			link.Type = declaredLinkType(wantKind)
		}
		inst := findInstance(app, from)
		inst.Connection.Ports = []ccl.PortSpec{{Name: "out", Links: []ccl.Link{link}}}

		plan, err := Compile(defs, app)
		if !legal {
			if err == nil {
				t.Fatalf("trial %d: illegal pair %s->%s accepted (parents %v)", trial, from, to, parents)
			}
			if !errors.Is(err, ErrCompile) {
				t.Fatalf("trial %d: err = %v, want ErrCompile", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: legal pair %s->%s rejected: %v (parents %v)", trial, from, to, err, parents)
		}
		if len(plan.Connections) != 1 {
			t.Fatalf("trial %d: connections = %d", trial, len(plan.Connections))
		}
		c := plan.Connections[0]
		if c.FromInstance != from || c.ToInstance != to {
			t.Fatalf("trial %d: orientation %s->%s, want %s->%s", trial, c.FromInstance, c.ToInstance, from, to)
		}
		if c.Kind != wantKind {
			t.Fatalf("trial %d: kind = %v, want %v (%s->%s, parents %v)", trial, c.Kind, wantKind, from, to, parents)
		}
		if c.Mediator != wantMediator {
			t.Fatalf("trial %d: mediator = %q, want %q", trial, c.Mediator, wantMediator)
		}
		// Invariant: the mediator can reach both endpoints' memory: it is
		// an ancestor-or-self of both, or everything involved is immortal.
		isAncOrSelf := func(a, b string) bool {
			if a == b {
				return true
			}
			for cur := parents[b]; cur != ""; cur = parents[cur] {
				if cur == a {
					return true
				}
			}
			return false
		}
		bothImmortal := parents[from] == "" && parents[to] == ""
		if !bothImmortal && (!isAncOrSelf(c.Mediator, from) || !isAncOrSelf(c.Mediator, to)) {
			t.Fatalf("trial %d: mediator %q cannot reach both %s and %s", trial, c.Mediator, from, to)
		}
	}
}

// TestPropertyDeclaredDirectionIrrelevant verifies that declaring a link on
// the In side produces the same oriented connection as declaring it on the
// Out side.
func TestPropertyDeclaredDirectionIrrelevant(t *testing.T) {
	defs := genDefs()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		appA, parents := genTree(rng, n)
		from := fmt.Sprintf("N%d", rng.Intn(n))
		to := fmt.Sprintf("N%d", rng.Intn(n))
		if from == to {
			continue
		}
		kind, _, legal := relationship(parents, from, to)
		if !legal {
			continue
		}
		lt := declaredLinkType(kind)

		findInstance(appA, from).Connection.Ports = []ccl.PortSpec{{
			Name: "out", Links: []ccl.Link{{Type: lt, ToComponent: to, ToPort: "in"}},
		}}
		planA, err := Compile(defs, appA)
		if err != nil {
			t.Fatalf("trial %d out-side: %v", trial, err)
		}

		// Same tree, same connection, declared on the In side instead.
		findInstance(appA, from).Connection.Ports = nil
		findInstance(appA, to).Connection.Ports = []ccl.PortSpec{{
			Name: "in", Links: []ccl.Link{{Type: lt, ToComponent: from, ToPort: "out"}},
		}}
		planB, err := Compile(defs, appA)
		if err != nil {
			t.Fatalf("trial %d in-side: %v", trial, err)
		}
		if len(planA.Connections) != 1 || len(planB.Connections) != 1 {
			t.Fatalf("trial %d: connection counts %d/%d", trial, len(planA.Connections), len(planB.Connections))
		}
		if planA.Connections[0] != planB.Connections[0] {
			t.Fatalf("trial %d: %+v != %+v", trial, planA.Connections[0], planB.Connections[0])
		}
	}
}
