package remote

import (
	"testing"

	"repro/internal/orb"
	"repro/internal/transport"
)

func TestAckdProxyRepeatedSends(t *testing.T) {
	net := transport.NewInproc()
	srv, got := startRemoteSink(t, net)
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	proxy, err := NewProxy(cl, "Sink.in", wireType, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		msg := proxy.typ.New()
		msg.(*wireMsg).value = i
		if err := proxy.Send(msg, 9); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		v := recvTagged(t, got)
		t.Logf("recv %v", v)
	}
}
