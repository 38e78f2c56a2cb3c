package mm

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestPageLayout pins the page arena's contract: no arena element or swap
// cluster holds a pointer, so the garbage collector never scans one, and
// the flag byte a resident hit tests stays one byte.
func TestPageLayout(t *testing.T) {
	if size := unsafe.Sizeof(pageFlags(0)); size != 1 {
		t.Errorf("unsafe.Sizeof(pageFlags(0)) = %d, want 1", size)
	}
	if size := unsafe.Sizeof(pageOwner(0)); size != 2 {
		t.Errorf("unsafe.Sizeof(pageOwner(0)) = %d, want 2", size)
	}
	if size := unsafe.Sizeof(pageLink{}); size != 8 {
		t.Errorf("unsafe.Sizeof(pageLink{}) = %d, want 8", size)
	}
	if size := unsafe.Sizeof(Page{}); size > 56 {
		t.Errorf("unsafe.Sizeof(Page{}) = %d, want <= 56", size)
	}
	if path := pointerPath(reflect.TypeOf(struct{ a [2]struct{ p *int } }{}), "probe"); path != "probe.a[].p" {
		t.Fatalf("pointerPath missed a nested pointer: got %q", path)
	}
	var m Manager
	for _, typ := range []reflect.Type{
		reflect.TypeOf(m.flags).Elem(),
		reflect.TypeOf(m.lastTouch).Elem(),
		reflect.TypeOf(m.links).Elem(),
		reflect.TypeOf(m.owners).Elem(),
		reflect.TypeOf(m.farHits).Elem(),
		reflect.TypeOf(m.cold).Elem().Elem(), // the chunks the table points to
		reflect.TypeOf(m.clusters).Elem(),
	} {
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("arena element %s holds a pointer-bearing field at %s", typ, path)
		}
	}
}

// pointerPath returns the path of the first field of typ (named path) that
// holds a pointer, slice, map, interface, string, chan or func — anything
// the garbage collector scans — or "" if there is none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
		return path
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// placeFar makes page id a far resident page at the head of g's far list,
// without reserving node capacity.
func placeFar(m *Manager, g *Group, id PageID) {
	m.flags[id] |= flagResident | flagFar
	m.pushHead(&g.farList, id)
}

// randomFarList builds a group whose far list holds n pages in a seeded
// random order with random referenced bits, touch counts and in-flight
// promotions.
func randomFarList(seed uint64, n int) (*Manager, *Group, []PageID) {
	m, _ := newFarManager(16, int64(n)+1, nil)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, n, 1)
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	for _, i := range rng.Perm(n) {
		id := pages[i]
		if rng.IntN(2) == 0 {
			m.flags[id] |= flagReferenced
		}
		m.farHits[id] = uint8(rng.IntN(5))
		m.page(id).migrating = rng.IntN(4) == 0
		placeFar(m, g, id)
	}
	return m, g, pages
}

// sampleFarByRotation is SampleFar as one rotate-to-head per scanned page:
// the reference the splice must reproduce.
func sampleFarByRotation(m *Manager, l *lruList, budget int, threshold uint8) (cands []PageID, sampled int) {
	if budget > l.count {
		budget = l.count
	}
	for i := 0; i < budget; i++ {
		id := l.tail
		m.remove(l, id)
		m.pushHead(l, id)
		sampled++
		if m.flags[id]&flagReferenced != 0 {
			m.flags[id] &^= flagReferenced
			l.refs--
		}
		p := m.page(id)
		hot := m.farHits[id] >= threshold
		m.farHits[id] = 0
		if hot && !p.migrating {
			cands = append(cands, id)
		}
	}
	return cands, sampled
}

// listOrder returns l's pages head to tail, checking the links agree in
// both directions and every page's flags name l.
func listOrder(t *testing.T, m *Manager, l *lruList) []PageID {
	t.Helper()
	var order []PageID
	var prev PageID
	for id := l.head; id != 0; id = m.links[id].next {
		if m.links[id].prev != prev || m.listOf(id) != l {
			t.Fatalf("broken link at page %d", id)
		}
		order = append(order, id)
		prev = id
	}
	if l.tail != prev || len(order) != l.count {
		t.Fatalf("tail/count disagree with the head walk: %d pages, count %d", len(order), l.count)
	}
	return order
}

func TestSampleFarSpliceMatchesRotation(t *testing.T) {
	const threshold = 2
	for _, n := range []int{1, 2, 7, 64} {
		for _, budget := range []int{0, 1, n - 1, n, n + 5} {
			for seed := uint64(1); seed <= 5; seed++ {
				m, g, pages := randomFarList(seed, n)
				rm, ref, _ := randomFarList(seed, n)

				got, sampled := m.SampleFar(g, budget, threshold, nil)
				want, wantSampled := sampleFarByRotation(rm, &ref.farList, budget, threshold)

				if sampled != wantSampled {
					t.Fatalf("n=%d budget=%d seed=%d: sampled %d, want %d", n, budget, seed, sampled, wantSampled)
				}
				if a, b := got, want; !slices.Equal(a, b) {
					t.Fatalf("n=%d budget=%d seed=%d: candidates %v, want %v", n, budget, seed, a, b)
				}
				if a, b := listOrder(t, m, &g.farList), listOrder(t, rm, &ref.farList); !slices.Equal(a, b) {
					t.Fatalf("n=%d budget=%d seed=%d: order %v, want %v", n, budget, seed, a, b)
				}
				if g.farList.refs != ref.farList.refs {
					t.Fatalf("n=%d budget=%d seed=%d: refs %d, want %d", n, budget, seed, g.farList.refs, ref.farList.refs)
				}
				for _, id := range pages {
					if m.farHits[id] != rm.farHits[id] || (m.flags[id]^rm.flags[id])&flagReferenced != 0 {
						t.Fatalf("n=%d budget=%d seed=%d: page %d bits differ", n, budget, seed, id)
					}
				}
			}
		}
	}
}
