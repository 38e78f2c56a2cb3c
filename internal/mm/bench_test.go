package mm

import (
	"math/rand/v2"
	"testing"

	"tmo/internal/vclock"
)

// Hot-path micro-benchmarks: the simulator runs millions of touches and
// thousands of reclaim passes per experiment, so these paths bound how much
// virtual time a wall-clock second buys.

func BenchmarkTouchResident(b *testing.B) {
	m := newTestManager(1<<18, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 4096, 1)
	touchAll(m, 0, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Touch(vclock.Time(i), pages[i%len(pages)])
	}
}

// BenchmarkTouchHit is Touch's resident-hit fast path on its own.
func BenchmarkTouchHit(b *testing.B) {
	m := newTestManager(1<<18, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 4096, 1)
	touchAll(m, 0, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.touchHit(vclock.Time(i), pages[i%len(pages)]) {
			b.Fatal("resident page missed")
		}
	}
}

// BenchmarkTouchResidentRandom touches 1<<18 resident pages in a seeded
// random order, the way a simulated host's touches land. The pages' hot
// arrays (a flag byte and an 8-byte lastTouch each) span 2.25 MiB, beyond a
// 2 MiB L2 though within a large L3, so a touch typically misses L2 on its
// lastTouch slot.
func BenchmarkTouchResidentRandom(b *testing.B) {
	const n = 1 << 18
	m := newTestManager(2*n, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, n, 1)
	touchAll(m, 0, pages)
	rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Touch(vclock.Time(i), pages[i%n])
	}
}

// BenchmarkSampleFar is one placement-loop access-bit scan of 256 pages
// over a 4096-page far list.
func BenchmarkSampleFar(b *testing.B) {
	const n = 4096
	m, _ := newFarManager(16, n, nil)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, n, 1)
	for _, p := range pages {
		placeFar(m, g, p)
	}
	cands := make([]PageID, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-heat a page each round so scans yield candidates.
		m.farHits[pages[i%n]] = 2
		cands, _ = m.SampleFar(g, 256, 2, cands[:0])
	}
}

// BenchmarkDemoteCold is one watermark demotion of 32 pages from a
// 4096-page local anon LRU, plus committing their promotions back so every
// round starts from the same steady state.
func BenchmarkDemoteCold(b *testing.B) {
	const n = 4096
	m, _ := newFarManager(2*n, n, nil)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, n, 1)
	touchAll(m, 0, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := vclock.Time(i)
		m.DemoteCold(now, g, 32*pageSize)
		for id := g.farList.head; id != 0; {
			next := m.links[id].next
			m.BeginPromotion(id)
			m.PromoteFromFar(now, id)
			id = next
		}
	}
}

func BenchmarkFaultZeroFill(b *testing.B) {
	m := newTestManager(1<<18, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 1024, 1)
	free := make([]PageID, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pages[i%len(pages)]
		m.Touch(vclock.Time(i), p)
		free[0] = p
		m.FreePages(free)
	}
}

// BenchmarkSwapInFaultReadahead exercises the full swap-cluster machinery:
// batched swap-outs populate clusters, then faults pull them back with
// readahead riding along. This is the per-fault path the cluster
// bookkeeping must keep allocation-free.
func BenchmarkSwapInFaultReadahead(b *testing.B) {
	z := newZswap()
	m := NewManager(Config{
		CapacityBytes: (1 << 18) * pageSize,
		Swap:          z,
		FS:            newTestFS(99),
		Policy:        PolicyTMO,
		SwapReadahead: 4,
	})
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 64, 2)
	touchAll(m, 0, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := vclock.Time(i) * vclock.Time(vclock.Second)
		m.ProactiveReclaim(now, g, 16*pageSize)
		for _, p := range pages {
			if m.State(p) == Offloaded {
				m.Touch(now, p)
			}
		}
	}
}

func BenchmarkSwapInFault(b *testing.B) {
	z := newZswap()
	m := newTestManager(1<<18, z, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 4096, 2)
	touchAll(m, 0, pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pages[i%len(pages)]
		// Offload one page then fault it back: one store plus one load
		// per iteration.
		m.SetLimit(vclock.Time(i), g, g.HierResidentBytes()-pageSize)
		m.SetLimit(vclock.Time(i), g, 0)
		m.Touch(vclock.Time(i), p)
	}
}

func BenchmarkProactiveReclaim(b *testing.B) {
	z := newZswap()
	m := newTestManager(1<<20, z, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 65536, 1)
	touchAll(m, 0, pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reclaim a batch, then touch it back in so the working set stays
		// stable across iterations.
		m.ProactiveReclaim(vclock.Time(i)*vclock.Time(vclock.Second), g, 64*pageSize)
		for _, p := range pages[:64] {
			if m.State(p) != Resident {
				m.Touch(vclock.Time(i)*vclock.Time(vclock.Second), p)
			}
		}
	}
}

func BenchmarkColdnessSurvey(b *testing.B) {
	m := newTestManager(1<<18, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 65536, 1)
	touchAll(m, 0, pages)
	windows := []vclock.Duration{vclock.Minute, 2 * vclock.Minute, 5 * vclock.Minute}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Coldness(vclock.Time(i), pages, windows)
	}
}
