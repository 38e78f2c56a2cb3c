package workload

import (
	"encoding/binary"
	"math"
	"testing"
)

// touchEvent is one class's touches at one request.
type touchEvent struct {
	req   uint64
	class int
	n     int
}

// FuzzTouchSchedule drives the countdown schedule and a reference
// per-request integer credit loop, using the same fixed-point conversion,
// through the same requests, load changes and restarts, and requires
// identical touch sequences. data carries three class rates (uint16 each,
// in units of 1/3000 touches per request: not dyadic, so the steps round;
// 0, more than one touch per request and the maxTouches cap are reachable)
// followed by 3-byte ops: kind, argument (a load factor in 32nds) and a gap
// of requests to serve first.
func FuzzTouchSchedule(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x00, 0x02, 0x00, 0x40, 0, 0, 200})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x33, 0x33, 0, 48, 90, 1, 0, 30, 0, 0, 255, 0, 16, 7})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x10, 0x00, 2, 0, 255, 0, 1, 255, 1, 0, 0, 0, 200, 60})
	f.Add([]byte{0x07, 0x00, 0xb8, 0x0b, 0x94, 0x11, 0, 40, 50, 2, 0, 200, 1, 0, 100, 2, 0, 100, 0, 0, 10, 2, 0, 50, 0, 64, 1, 2, 0, 100})
	// Rates above one touch per request (2.73, 8.2 and 21.8), through the
	// cap at load 8.
	f.Add([]byte{0x00, 0x20, 0x00, 0x60, 0xff, 0xff, 2, 0, 40, 0, 255, 30, 0, 16, 30})
	// Load changes to the load already in force: 1, then 1.5 twice.
	f.Add([]byte{0x11, 0x01, 0x2a, 0x00, 0x00, 0x03, 0, 32, 37, 0, 32, 3, 0, 48, 50, 0, 48, 1, 2, 0, 90})
	// Load 0, a restart while idle, then load 1 again.
	f.Add([]byte{0x64, 0x00, 0xc8, 0x00, 0xe8, 0x03, 0, 0, 20, 1, 0, 40, 2, 0, 40, 0, 32, 0, 2, 0, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		var rates [3]float64
		for i := range rates {
			rates[i] = float64(binary.LittleEndian.Uint16(data[2*i:])) / 3000
		}
		ops := data[6:]
		if len(ops) > 3*48 {
			ops = ops[:3*48]
		}

		var s touchSchedule
		for _, r := range rates {
			s.add(nil, r, 1)
		}
		s.reset()
		var got []touchEvent
		serve := func() {
			if s.next() {
				s.settle()
				for i, c := range s.classes {
					if c.owed > 0 {
						got = append(got, touchEvent{s.reqs, i, c.owed})
					}
				}
			}
		}

		var acc [3]uint64
		load := 1.0
		var req uint64
		var want []touchEvent
		ref := func() {
			req++
			for i, r := range rates {
				acc[i] += fixed(r * load)
				if n := int(acc[i] >> 32); n > 0 {
					acc[i] -= uint64(n) << 32
					want = append(want, touchEvent{req, i, n})
				}
			}
		}

		for ; len(ops) >= 3; ops = ops[3:] {
			kind, arg, gap := ops[0], ops[1], int(ops[2])*8
			for i := 0; i < gap; i++ {
				serve()
				ref()
			}
			switch kind % 3 {
			case 0:
				load = float64(arg) / 32
				s.setLoad(load)
			case 1:
				acc = [3]uint64{}
				s.reset()
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d touch events, reference has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

// TestSetLoadSameLoadIsNoOp pins that a load change to the load already in
// force leaves every class's schedule as it was, mid-way between due
// requests, so a chaos ramp that holds its level costs nothing.
func TestSetLoadSameLoadIsNoOp(t *testing.T) {
	var s touchSchedule
	for _, r := range []float64{0.3, 1.0 / 3000, 2.7, 0} {
		s.add(nil, r, 1.5)
	}
	s.reset()
	for i := 0; i < 1234; i++ {
		if s.next() {
			s.settle()
		}
	}
	before := append([]toucher(nil), s.classes...)
	s.setLoad(1.5)
	for i, c := range s.classes {
		b := before[i]
		if c.due != b.due || c.credit != b.credit || c.at != b.at {
			t.Errorf("class %d: due/credit/at %d/%d/%d after setLoad at the same load, were %d/%d/%d",
				i, c.due, c.credit, c.at, b.due, b.credit, b.at)
		}
	}
}

// TestFixedIsTotal checks that every load factor SetLoadFactor can receive
// converts to a step: 0 and NaN earn no touches and are never due, while
// +Inf and huge finite loads saturate at maxTouches, and settle spends them
// at the next request in one step, keeping its credit below one.
func TestFixedIsTotal(t *testing.T) {
	for _, tc := range []struct {
		load float64
		owed int
	}{
		{0, 0},
		{math.NaN(), 0},
		{math.Inf(1), maxTouches},
		{math.MaxFloat64, maxTouches},
		{1e300, maxTouches},
	} {
		var s touchSchedule
		s.add(nil, 0.3, 1)
		s.reset()
		for i := 0; i < 7; i++ {
			if s.next() {
				s.settle()
			}
		}
		s.setLoad(tc.load)
		c := &s.classes[0]
		if tc.owed == 0 {
			if c.step != 0 || c.due != never || s.next() {
				t.Errorf("load %v: step %d due %d, want 0 and never", tc.load, c.step, c.due)
			}
			continue
		}
		if !s.next() {
			t.Fatalf("load %v: class not due at the next request (due %d, now %d)", tc.load, c.due, s.reqs)
		}
		s.settle()
		if c.owed != tc.owed || c.credit >= one {
			t.Errorf("load %v: owed %d credit %#x, want %d and below one", tc.load, c.owed, c.credit, tc.owed)
		}
	}
}
