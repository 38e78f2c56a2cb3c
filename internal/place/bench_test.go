package place

import (
	"testing"

	"tmo/internal/mm"
	"tmo/internal/vclock"
)

// BenchmarkPlaceTick is one controller interval over a 4096-page far list:
// it commits the previous interval's promotions, samples a 256-page budget
// and begins up to maxInflight new promotions. Each round first heats every
// 32nd page (eight in any 256-page window) with two touches, and afterwards
// frees and refaults the pages it promoted, which static interleaving puts
// back on the far node, so every round starts from the same steady state.
func BenchmarkPlaceTick(b *testing.B) {
	const n, stride = 4096, 32
	hn := newHarness(b, 2*n, n, 0)
	hn.mgr.SetFarInterleave(1)
	pages := hn.mgr.NewPages(hn.g.MM(), mm.Anon, n, 1)
	for _, p := range pages {
		hn.mgr.Touch(0, p)
	}
	base := vclock.Time(vclock.Minute)
	hn.ctrl.Tick(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := base.Add(vclock.Duration(i+1) * vclock.Second)
		for j := i % stride; j < n; j += stride {
			hn.mgr.Touch(now, pages[j])
			hn.mgr.Touch(now, pages[j])
		}
		hn.ctrl.Tick(now)
		for j := (i + stride - 1) % stride; j < n; j += stride {
			if !hn.mgr.Far(pages[j]) {
				hn.mgr.FreePages(pages[j : j+1])
				hn.mgr.Touch(now, pages[j])
			}
		}
	}
	b.StopTimer()
	if st := hn.ctrl.Stats(); b.N > 2 && st.Promotions == 0 {
		b.Fatalf("no promotions committed: %+v", st)
	}
}
