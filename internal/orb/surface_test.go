package orb_test

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/rtzen"
)

// TestConfigSurface pins the number of independently settable values an ORB
// endpoint has, and the configurations around it: the component runtime's
// ports and applications, the baseline ORB and the replica-group client.
// Every field is a configuration the tests and the benchmark must cover;
// adding one should be a conscious diff here, not a side effect.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{orb.ClientConfig{}, 11},
		{orb.ServerConfig{}, 9},
		{core.InPortConfig{}, 8},
		{core.AppConfig{}, 4},
		{rtzen.ClientConfig{}, 2},
		{rtzen.ServerConfig{}, 2},
		{cluster.ClientConfig{}, 5},
	} {
		if typ := reflect.TypeOf(c.cfg); typ.NumField() != c.want {
			t.Errorf("%s has %d fields, want %d", typ, typ.NumField(), c.want)
		}
	}
}
