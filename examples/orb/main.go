// Orb runs the paper's real-world example end to end in one process: a
// Compadres ORB server exposing two CORBA objects over loopback TCP, a
// Compadres ORB client invoking them, and a comparison invocation through
// the hand-coded RTZen baseline — a miniature of the paper's §3.3
// experiment.
//
//	go run ./examples/orb
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// temperatureServant models a DRE sensor service: it answers readC with a
// CDR-encoded temperature for the zone named in the request.
func temperatureServant() corba.Servant {
	temps := map[string]float64{"engine": 91.5, "cabin": 21.0}
	return corba.ServantFunc(func(op string, in []byte) ([]byte, error) {
		if op != "readC" {
			return nil, fmt.Errorf("temperature: no operation %q", op)
		}
		d := giop.NewDecoder(giop.BigEndian, in)
		zone, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		t, ok := temps[zone]
		if !ok {
			return nil, fmt.Errorf("temperature: unknown zone %q", zone)
		}
		e := giop.NewEncoder(giop.BigEndian, nil)
		e.WriteDouble(t)
		return e.Bytes(), nil
	})
}

func run() error {
	// --- Server side: ORB -> POA/Acceptor -> Transport -> RequestProcessing.
	srv, err := orb.NewServer(orb.ServerConfig{Network: transport.TCP{}, Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.RegisterServant("echo", corba.EchoServant{})
	srv.RegisterServant("temperature", temperatureServant())
	srv.ServeBackground()
	fmt.Println("Compadres ORB server listening on", srv.Addr())

	// --- Client side: ORB -> Transport -> MessageProcessing.
	cl, err := orb.DialClient(orb.ClientConfig{Network: transport.TCP{}, Addr: srv.Addr()})
	if err != nil {
		return err
	}
	defer cl.Close()

	// A typed invocation: marshal the in-parameter, invoke, demarshal.
	e := giop.NewEncoder(giop.BigEndian, nil)
	e.WriteString("engine")
	out, err := cl.Invoke("temperature", "readC", e.Bytes(), sched.NormPriority)
	if err != nil {
		return err
	}
	temp, err := giop.NewDecoder(giop.BigEndian, out).ReadDouble()
	if err != nil {
		return err
	}
	fmt.Printf("temperature.readC(engine) = %.1f°C\n", temp)

	// An echo latency sample through the component-structured ORB.
	payload := make([]byte, 256)
	binary.BigEndian.PutUint64(payload, 0xDEADBEEF)
	sum, err := metrics.RunSteadyState(100, 1000, func() error {
		_, err := cl.Invoke("echo", "echo", payload, sched.NormPriority)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Println("Compadres ORB 256B echo:", sum)

	// --- The RTZen baseline against the same kind of servant.
	zsrv, err := rtzen.NewServer(rtzen.ServerConfig{Network: transport.TCP{}, Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer zsrv.Close()
	zsrv.RegisterServant("echo", corba.EchoServant{})
	zsrv.ServeBackground()

	zcl, err := rtzen.DialClient(rtzen.ClientConfig{Network: transport.TCP{}, Addr: zsrv.Addr()})
	if err != nil {
		return err
	}
	defer zcl.Close()
	zsum, err := metrics.RunSteadyState(100, 1000, func() error {
		_, err := zcl.Invoke("echo", "echo", payload, sched.NormPriority)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Println("RTZen (hand-coded) 256B echo:", zsum)
	fmt.Println("the difference is the component framework's overhead (§3.3)")
	return nil
}
