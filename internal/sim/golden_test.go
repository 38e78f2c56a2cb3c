package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"tmo/internal/cgroup"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// serverTickGolden is the digest of the TickResult stream TestServerTickGolden
// expects. It pins the request path's exact output: the order of every RNG
// draw and every float expression in workload and mm. A change that moves one
// bit must be a deliberate model change, and then this constant is
// re-recorded with it.
const serverTickGolden = 0x21842ffbf0611c9c

// serverTickLatencies is each app's p50 and p99 request latency, in µs, at
// the end of TestServerTickGolden's run. The latency recorder draws nothing
// the tick stream sees, so a change to how latencies are recorded moves only
// this table.
var serverTickLatencies = [3][2]vclock.Duration{
	{2016, 2752}, // ads-b
	{2016, 2496}, // feed
	{2016, 2368}, // analytics
}

// TestServerTickGolden runs a 3-app zswap host under memory pressure for 2
// virtual minutes, through a phase shift, a load surge (3x, then 0.5x, then
// back to 1x) and a restart. It digests every app's TickResult on every tick
// and checks each app's p50/p99 request latency against a table.
func TestServerTickGolden(t *testing.T) {
	s := newServer(448, "zswap")
	ads := workload.MustCatalog("ads-b")
	ads.PhaseShiftPeriod = 30 * vclock.Second
	apps := []*workload.App{
		s.AddApp(ads, cgroup.Workload, nil, 11),
		s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 12),
		s.AddApp(workload.MustCatalog("analytics"), cgroup.Workload, nil, 13),
	}
	sp := senpai.New(senpai.ConfigA(), s.Swap())
	for _, a := range apps {
		sp.AddTarget(a.Group)
	}
	s.AddController(sp)

	surge := apps[1]
	s.OnTickStart(func(now vclock.Time) {
		switch now {
		case vclock.Time(20 * vclock.Second):
			surge.SetLoadFactor(3)
		case vclock.Time(50 * vclock.Second):
			surge.SetLoadFactor(0.5)
		case vclock.Time(80 * vclock.Second):
			surge.SetLoadFactor(1)
		case vclock.Time(65 * vclock.Second):
			apps[2].Restart(now)
		}
	})

	h := fnv.New64a()
	s.OnTick(func(vclock.Time) {
		for _, a := range apps {
			r := s.LastResult(a)
			writeInts(h, int64(r.Completed), int64(r.SwapIns), int64(r.Refaults), int64(r.ColdReads), int64(len(r.Stalls)))
			for _, iv := range r.Stalls {
				writeInts(h, int64(iv.Start), int64(iv.End), flags(iv.Mem, iv.IO, false))
			}
		}
	})
	s.Run(2 * vclock.Minute)
	if got := h.Sum64(); got != serverTickGolden {
		t.Errorf("tick digest = %#x, want %#x", got, uint64(serverTickGolden))
	}
	for i, a := range apps {
		got := [2]vclock.Duration{a.RequestLatencyQuantile(0.5), a.RequestLatencyQuantile(0.99)}
		if got != serverTickLatencies[i] {
			t.Errorf("%s p50/p99 = %d/%d µs, want %d/%d", a.Profile.Name, got[0], got[1], serverTickLatencies[i][0], serverTickLatencies[i][1])
		}
	}
}

func writeInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func flags(bs ...bool) int64 {
	var f int64
	for i, b := range bs {
		if b {
			f |= 1 << i
		}
	}
	return f
}
