package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
)

// The machine-speed control. The 2-vCPU VM this benchmark was written on
// changes speed under the program: for hundredths of a second to minutes at a
// time a neighbour on the physical core makes everything, the workload, the
// RTZen baseline and a loop of plain arithmetic alike, 10 to 60 % slower, with
// next to no steal time to show for it. Ten runs of plain whole-window
// statistics then spread 20 to 150 % (README, finding 4), and the slow spells
// outlast a run, so more or longer repetitions do not help, and quiet slices
// (runner.go) cannot when no slice of a run is quiet. So between the slices of
// the measured window a repetition times a calibration loop for calNs: fixed
// work that uses no code of the repository, only the Go runtime and the
// kernel, so no change to the program under test can move it. A slice's
// latencies and rate are brought to reference speed with the calibrations on
// either side of it: times are multiplied by the loop's reference time over
// its measured time. The raw values and the speed factor stay in the result.
//
// A neighbour slows the kernel's loopback path more than user code, so there
// are two loops, and a workload is calibrated by the one that resembles it.
const calNs = int64(5e6) // per calibration

// calibrator is one calibration loop. refNs is its time per iteration on the
// reference machine: that VM (Xeon 2.1 GHz, go1.24) at full speed, where
// reported and raw times therefore agree to a few percent. On another host
// the constants are off by a fixed factor, which scales every time on both
// sides of a comparison alike.
type calibrator struct {
	refNs float64
	burst int // iterations per clock pair, 0.2 to 0.4 ms
	loop  func(n int) error
	close func()
}

var (
	calCounters [8]atomic.Int64
	calMu       sync.Mutex
	calSrc      [256]byte
	calDst      [256]byte
	calIface    calStepper = calStep{}
)

type calStepper interface{ step(i int) }

type calStep struct{}

func (calStep) step(i int) { calCounters[i&7].Add(1) }

// calCompute is the in-process loop: per iteration two interface calls, three
// atomic adds, a mutex and a 256-byte copy, on the calling goroutine.
func calCompute(n int) error {
	for i := 0; i < n; i++ {
		calIface.step(i)
		calCounters[(i+3)&7].Add(1)
		calMu.Lock()
		copy(calDst[:], calSrc[:])
		calMu.Unlock()
		calIface.step(i + 5)
	}
	return nil
}

// newCalibrator returns the loop for a workload whose time goes to loopback
// TCP (one rawFrame-byte round trip over a 127.0.0.1 connection per
// iteration: two writes, two reads, two netpoll wake-ups) or, otherwise, to
// code inside the process.
func newCalibrator(tcp bool) (*calibrator, error) {
	if !tcp {
		return &calibrator{refNs: 40.0, burst: 5000, loop: calCompute, close: func() {}}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration listener: %w", err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("calibration dial: %w", err)
	}
	server, err := ln.Accept() // the dial above is already in the backlog
	ln.Close()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("calibration accept: %w", err)
	}
	done := make(chan struct{})
	go func() { // echoes until close shuts the connection
		defer close(done)
		buf := make([]byte, rawFrame)
		for {
			if _, err := io.ReadFull(server, buf); err != nil {
				return
			}
			if _, err := server.Write(buf); err != nil {
				return
			}
		}
	}()
	out, in := make([]byte, rawFrame), make([]byte, rawFrame)
	return &calibrator{
		refNs: 8100, burst: 50,
		loop: func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := conn.Write(out); err != nil {
					return err
				}
				if _, err := io.ReadFull(conn, in); err != nil {
					return err
				}
			}
			return nil
		},
		close: func() {
			conn.Close()
			server.Close()
			<-done
		},
	}, nil
}

// sample runs the loop for calNs and returns its time per iteration in ns:
// the lower quartile over bursts. A calibration is to read the speed the
// machine sustains, the one the quiet slices next to it ran at, and a few
// bursts of interference inside the 5 ms must not move it; when the machine
// is slow for longer, every burst is.
func (c *calibrator) sample() (float64, error) {
	var bursts [64]float64
	n := 0
	for end := nowNs() + calNs; n < len(bursts); n++ {
		t0 := nowNs()
		if t0 >= end && n > 0 {
			break
		}
		if err := c.loop(c.burst); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		bursts[n] = float64(nowNs()-t0) / float64(c.burst)
	}
	sort.Float64s(bursts[:n])
	return percentile(bursts[:n], 0.25), nil
}
