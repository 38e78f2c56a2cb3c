package workload

import (
	"encoding/binary"
	"testing"
)

// touchEvent is one class's touches at one request.
type touchEvent struct {
	req   uint64
	class int
	n     int
}

// FuzzTouchSchedule drives the countdown schedule and a reference
// per-request credit loop through the same requests, load changes and
// restarts, and requires identical touch sequences. data carries three
// class rates (uint16 each, in units of 1/3000 touches per request: not
// dyadic, so the credit sums round; 0 and more than one touch per request
// are reachable) followed by 3-byte ops: kind, argument (a load factor in
// 32nds, so steps small enough to hit the lookahead cap are reachable),
// and a gap of requests to serve first.
func FuzzTouchSchedule(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x00, 0x02, 0x00, 0x40, 0, 0, 200})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x33, 0x33, 0, 48, 90, 1, 0, 30, 0, 0, 255, 0, 16, 7})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x10, 0x00, 2, 0, 255, 0, 1, 255, 1, 0, 0, 0, 200, 60})
	f.Add([]byte{0x07, 0x00, 0xb8, 0x0b, 0x94, 0x11, 0, 40, 50, 2, 0, 200, 1, 0, 100, 2, 0, 100, 0, 0, 10, 2, 0, 50, 0, 64, 1, 2, 0, 100})
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

		var acc [3]float64
		load := 1.0
		var req uint64
		var want []touchEvent
		ref := func() {
			req++
			for i, r := range rates {
				acc[i] += r * load
				n := 0
				for acc[i] >= 1 {
					acc[i]--
					n++
				}
				if n > 0 {
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
				acc = [3]float64{}
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
