package mm

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// TestPageLayout pins Page's hot-span contract: the struct stays at most
// 112 bytes and every field a resident hit or an LRU move touches ends
// within its first 64 bytes. A new field added ahead of them, or a hot
// field that grows, fails here by name.
func TestPageLayout(t *testing.T) {
	var p Page
	if size := unsafe.Sizeof(p); size > 112 {
		t.Errorf("unsafe.Sizeof(Page{}) = %d, want <= 112", size)
	}
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"group", unsafe.Offsetof(p.group), unsafe.Sizeof(p.group)},
		{"list", unsafe.Offsetof(p.list), unsafe.Sizeof(p.list)},
		{"next", unsafe.Offsetof(p.next), unsafe.Sizeof(p.next)},
		{"prev", unsafe.Offsetof(p.prev), unsafe.Sizeof(p.prev)},
		{"lastTouch", unsafe.Offsetof(p.lastTouch), unsafe.Sizeof(p.lastTouch)},
		{"pendingUntil", unsafe.Offsetof(p.pendingUntil), unsafe.Sizeof(p.pendingUntil)},
		{"Type", unsafe.Offsetof(p.Type), unsafe.Sizeof(p.Type)},
		{"state", unsafe.Offsetof(p.state), unsafe.Sizeof(p.state)},
		{"active", unsafe.Offsetof(p.active), unsafe.Sizeof(p.active)},
		{"referenced", unsafe.Offsetof(p.referenced), unsafe.Sizeof(p.referenced)},
		{"touched", unsafe.Offsetof(p.touched), unsafe.Sizeof(p.touched)},
		{"pendingIO", unsafe.Offsetof(p.pendingIO), unsafe.Sizeof(p.pendingIO)},
		{"dirty", unsafe.Offsetof(p.dirty), unsafe.Sizeof(p.dirty)},
		{"refaulted", unsafe.Offsetof(p.refaulted), unsafe.Sizeof(p.refaulted)},
		{"far", unsafe.Offsetof(p.far), unsafe.Sizeof(p.far)},
		{"farHits", unsafe.Offsetof(p.farHits), unsafe.Sizeof(p.farHits)},
		{"migrating", unsafe.Offsetof(p.migrating), unsafe.Sizeof(p.migrating)},
		{"hasShadow", unsafe.Offsetof(p.hasShadow), unsafe.Sizeof(p.hasShadow)},
	}
	for _, f := range hot {
		if end := f.off + f.size; end > 64 {
			t.Errorf("hot field Page.%s ends at byte %d, past the first 64", f.name, end)
		}
	}
}

// randomFarList builds a group whose far list holds n pages in a seeded
// random order with random referenced bits, touch counts and in-flight
// promotions.
func randomFarList(seed uint64, n int) (*Manager, *Group, []*Page) {
	m, _ := newFarManager(16, int64(n)+1, nil)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, n, 1)
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	for _, i := range rng.Perm(n) {
		p := pages[i]
		p.state = Resident
		p.far = true
		p.referenced = rng.IntN(2) == 0
		p.farHits = uint8(rng.IntN(5))
		p.migrating = rng.IntN(4) == 0
		g.farList.pushHead(p)
	}
	return m, g, pages
}

// sampleFarByRotation is SampleFar as one rotate-to-head per scanned page:
// the reference the splice must reproduce.
func sampleFarByRotation(l *lruList, budget int, threshold uint8) (cands []*Page, sampled int) {
	if budget > l.count {
		budget = l.count
	}
	for i := 0; i < budget; i++ {
		p := l.tail
		l.remove(p)
		l.pushHead(p)
		sampled++
		if p.referenced {
			p.referenced = false
			l.refs--
		}
		hot := p.farHits >= threshold
		p.farHits = 0
		if hot && !p.migrating {
			cands = append(cands, p)
		}
	}
	return cands, sampled
}

// listOrder returns the indices (into pages) of l's pages head to tail,
// checking the links agree in both directions.
func listOrder(t *testing.T, l *lruList, pages []*Page) []int {
	t.Helper()
	var order []int
	var prev *Page
	for p := l.head; p != nil; p = p.next {
		if p.prev != prev || p.list != l {
			t.Fatalf("broken link at page %d", slices.Index(pages, p))
		}
		order = append(order, slices.Index(pages, p))
		prev = p
	}
	if l.tail != prev || len(order) != l.count {
		t.Fatalf("tail/count disagree with the head walk: %d pages, count %d", len(order), l.count)
	}
	return order
}

// indices maps each of ps to its index in all.
func indices(ps, all []*Page) []int {
	out := []int{}
	for _, p := range ps {
		out = append(out, slices.Index(all, p))
	}
	return out
}

func TestSampleFarSpliceMatchesRotation(t *testing.T) {
	const threshold = 2
	for _, n := range []int{1, 2, 7, 64} {
		for _, budget := range []int{0, 1, n - 1, n, n + 5} {
			for seed := uint64(1); seed <= 5; seed++ {
				m, g, pages := randomFarList(seed, n)
				_, ref, refPages := randomFarList(seed, n)

				got, sampled := m.SampleFar(g, budget, threshold, nil)
				want, wantSampled := sampleFarByRotation(&ref.farList, budget, threshold)

				if sampled != wantSampled {
					t.Fatalf("n=%d budget=%d seed=%d: sampled %d, want %d", n, budget, seed, sampled, wantSampled)
				}
				if a, b := indices(got, pages), indices(want, refPages); !slices.Equal(a, b) {
					t.Fatalf("n=%d budget=%d seed=%d: candidates %v, want %v", n, budget, seed, a, b)
				}
				if a, b := listOrder(t, &g.farList, pages), listOrder(t, &ref.farList, refPages); !slices.Equal(a, b) {
					t.Fatalf("n=%d budget=%d seed=%d: order %v, want %v", n, budget, seed, a, b)
				}
				if g.farList.refs != ref.farList.refs {
					t.Fatalf("n=%d budget=%d seed=%d: refs %d, want %d", n, budget, seed, g.farList.refs, ref.farList.refs)
				}
				for i := range pages {
					if pages[i].farHits != refPages[i].farHits || pages[i].referenced != refPages[i].referenced {
						t.Fatalf("n=%d budget=%d seed=%d: page %d bits differ", n, budget, seed, i)
					}
				}
			}
		}
	}
}
