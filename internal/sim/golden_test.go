package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmo/internal/cgroup"
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// checkGolden compares got with the golden file testdata/name, or rewrites
// the file under -update. On a mismatch it reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(b); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return fmt.Sprintf("%q", ls[i])
			}
			return "end of output"
		}
		t.Errorf("%s: line %d is %s, want %s (go test -run %s -update re-records it)", path, i+1, line(g), line(w), t.Name())
	}
}

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
// back to 1x) and a restart. It writes every app's TickResult on every tick
// as one line, compares the stream with testdata/server-tick.txt, and checks
// each app's p50/p99 request latency against a table. The stream pins the
// request path's exact output: the order of every RNG draw and every float
// expression in workload and mm. A change that moves one bit must be a
// deliberate model change, re-recorded with it.
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
	s.OnTick(sp.Tick)

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

	// One line per app per tick: its counts, then each stall interval as
	// start..end µs with flags 1 (memory), 2 (IO) or 3 (both).
	var b strings.Builder
	s.OnTick(func(now vclock.Time) {
		for _, a := range apps {
			r := s.LastResult(a)
			fmt.Fprintf(&b, "%v %s done=%d swapins=%d refaults=%d coldreads=%d stalls=%d",
				now, a.Profile.Name, r.Completed, r.SwapIns, r.Refaults, r.ColdReads, len(r.Stalls))
			for _, iv := range r.Stalls {
				fmt.Fprintf(&b, " %d..%d:%d", iv.Start, iv.End, flags(iv.Mem, iv.IO, false))
			}
			b.WriteByte('\n')
		}
	})
	s.Run(2 * vclock.Minute)
	checkGolden(t, "server-tick.txt", b.String())
	reg := telemetry.NewRegistry()
	for _, a := range apps {
		a.EnableTelemetry(reg)
	}
	snap := reg.Snapshot()
	for i, a := range apps {
		lat, _ := snap.Get("workload.request_latency_us", telemetry.Label{Key: "app", Value: a.Profile.Name})
		got := [2]vclock.Duration{vclock.Duration(lat.Quantile(0.5)), vclock.Duration(lat.Quantile(0.99))}
		if got != serverTickLatencies[i] {
			t.Errorf("%s p50/p99 = %d/%d µs, want %d/%d", a.Profile.Name, got[0], got[1], serverTickLatencies[i][0], serverTickLatencies[i][1])
		}
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
