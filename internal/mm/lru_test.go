package mm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// stateNames renders a page state in checkLRU's errors.
var stateNames = [...]string{NotPresent: "not-present", Resident: "resident", Offloaded: "offloaded", EvictedFile: "evicted-file"}

// checkLRU walks every inactive, active and far list of every group head to
// tail and returns the first inconsistency: a back-link that disagrees with
// the forward walk, a tail, count or refs that disagrees with the walk, a
// page seen on two lists, a page on a list other than the one its flags
// name, a resident page on no list (or a non-resident page on one), or a
// page on no list that still carries links.
func (m *Manager) checkLRU() error {
	seen := make([]bool, len(m.flags))
	walk := func(name string, l *lruList) error {
		var prev PageID
		n, refs := 0, 0
		for id := l.head; id != 0; id = m.links[id].next {
			if id < 0 || int(id) >= len(m.flags) {
				return fmt.Errorf("%s: link to page %d outside the arena", name, id)
			}
			if seen[id] {
				return fmt.Errorf("%s: page %d on two lists", name, id)
			}
			seen[id] = true
			if m.links[id].prev != prev {
				return fmt.Errorf("%s: page %d back-link %d, want %d", name, id, m.links[id].prev, prev)
			}
			if m.flags[id]&flagOnList == 0 || m.listOf(id) != l {
				return fmt.Errorf("%s: page %d is not on the list its flags name", name, id)
			}
			if m.flags[id]&flagReferenced != 0 {
				refs++
			}
			n++
			prev = id
		}
		if l.tail != prev {
			return fmt.Errorf("%s: tail %d, walk ends at %d", name, l.tail, prev)
		}
		if l.count != n {
			return fmt.Errorf("%s: count %d, walk found %d pages", name, l.count, n)
		}
		if l.refs != refs {
			return fmt.Errorf("%s: refs %d, walk found %d referenced pages", name, l.refs, refs)
		}
		return nil
	}
	for _, g := range m.groups {
		for t := range numPageTypes {
			for a, kind := range [2]string{"inactive", "active"} {
				if err := walk(fmt.Sprintf("group %s %v %s list", g.name, t, kind), &g.lists[t][a]); err != nil {
					return err
				}
			}
		}
		if err := walk(fmt.Sprintf("group %s far list", g.name), &g.farList); err != nil {
			return err
		}
	}
	for id := PageID(1); int(id) < len(m.flags); id++ {
		onList := m.flags[id]&flagOnList != 0
		switch {
		case onList != seen[id]:
			return fmt.Errorf("page %d: on-list bit %v, but the walk found it on a list: %v", id, onList, seen[id])
		case onList != (m.State(id) == Resident):
			return fmt.Errorf("page %d: %s page with on-list bit %v", id, stateNames[m.State(id)], onList)
		case !onList && m.links[id] != (pageLink{}):
			return fmt.Errorf("page %d: on no list but carries links %+v", id, m.links[id])
		}
	}
	return nil
}

// lruFixture returns a manager whose group holds pages 1-3 on its anon
// inactive list (3 at the head, 1 referenced) and pages 4-5 on its anon
// active list.
func lruFixture(t *testing.T) (*Manager, *Group) {
	t.Helper()
	m := newTestManager(64, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	ids := m.NewPages(g, Anon, 5, 1)
	for i, id := range ids {
		m.flags[id] |= flagResident
		if i == 0 {
			m.flags[id] |= flagReferenced
		}
		if i < 3 {
			m.pushHead(&g.lists[Anon][0], id)
		} else {
			m.flags[id] |= flagActive
			m.pushHead(&g.lists[Anon][1], id)
		}
	}
	if err := m.checkLRU(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return m, g
}

// TestCheckLRUCatchesCorruption mutates a consistent LRU state one way at a
// time; the walk must name each corruption.
func TestCheckLRUCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mutate     func(m *Manager, g *Group)
	}{
		{"broken back-link", "back-link", func(m *Manager, g *Group) {
			m.links[2].prev = 0
		}},
		{"stale refs", "refs", func(m *Manager, g *Group) {
			g.lists[Anon][0].refs++
		}},
		{"stale count", "count", func(m *Manager, g *Group) {
			g.lists[Anon][1].count--
		}},
		{"stale tail", "tail", func(m *Manager, g *Group) {
			g.lists[Anon][0].tail = 2
		}},
		{"page on two lists", "on two lists", func(m *Manager, g *Group) {
			// Page 1, the inactive tail, also hangs off the active tail.
			active := &g.lists[Anon][1]
			m.links[active.tail].next = 1
		}},
		{"page on the wrong list", "not on the list its flags name", func(m *Manager, g *Group) {
			m.flags[2] |= flagActive
		}},
		{"listed page unreachable", "on-list bit", func(m *Manager, g *Group) {
			// Unlink page 5, the active head, without clearing its bit.
			active := &g.lists[Anon][1]
			active.head = m.links[5].next
			m.links[active.head].prev = 0
			active.count--
		}},
		{"non-resident page on a list", "offloaded page with on-list bit", func(m *Manager, g *Group) {
			m.setState(3, Offloaded)
		}},
		{"links on an unlisted page", "carries links", func(m *Manager, g *Group) {
			id := m.NewPages(g, Anon, 1, 1)[0]
			m.links[id].prev = 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, g := lruFixture(t)
			tc.mutate(m, g)
			err := m.checkLRU()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkLRU() = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// lruFuzzPages is how many pages FuzzLRUOps shuffles between lists.
const lruFuzzPages = 12

// FuzzLRUOps drives arbitrary pushHead/remove/rotateTail/SampleFar
// sequences over one group's anon inactive, anon active and far lists,
// keeping a plain slice per list as the reference order, and runs the LRU
// walk after every step. Each op is two bytes: a kind and an argument.
func FuzzLRUOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1})
	f.Add([]byte{0, 2, 0, 5, 0, 8, 0, 11, 4, 1, 3, 2, 1, 5, 3, 3})
	f.Add([]byte{0, 3, 0, 6, 0, 9, 4, 3, 4, 6, 3, 0, 3, 2, 1, 3, 2, 3, 5, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m, _ := newFarManager(64, lruFuzzPages, nil)
		g := m.NewGroup("app", nil)
		ids := m.NewPages(g, Anon, lruFuzzPages, 1)
		lists := [3]*lruList{&g.lists[Anon][0], &g.lists[Anon][1], &g.farList}
		var ref [3][]PageID
		on := func(id PageID) int {
			for k := range ref {
				if slices.Contains(ref[k], id) {
					return k
				}
			}
			return -1
		}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%6, ops[i+1]
			id := ids[int(arg)%lruFuzzPages]
			k := int(arg/lruFuzzPages) % 3
			switch kind {
			case 0: // push a page on no list onto list k
				if on(id) >= 0 {
					break
				}
				m.flags[id] = flagResident
				if arg&0x80 != 0 {
					m.flags[id] |= flagReferenced
				}
				switch k {
				case 1:
					m.flags[id] |= flagActive
				case 2:
					m.flags[id] |= flagFar
				}
				m.pushHead(lists[k], id)
				ref[k] = slices.Insert(ref[k], 0, id)
			case 1: // remove a listed page
				k := on(id)
				if k < 0 {
					break
				}
				m.remove(lists[k], id)
				m.flags[id] = 0
				ref[k] = slices.DeleteFunc(ref[k], func(x PageID) bool { return x == id })
			case 2: // rotate a tail segment of list k to the head
				n := len(ref[k])
				if n == 0 {
					break
				}
				j := n - 1 - int(arg)%n
				m.rotateTail(lists[k], ref[k][j])
				ref[k] = append(slices.Clone(ref[k][j:]), ref[k][:j]...)
			case 3: // sample the far list
				budget, threshold := int(arg)%(lruFuzzPages+2), uint8(1+arg%3)
				n := min(budget, len(ref[2]))
				var want []PageID
				for j := len(ref[2]) - 1; j >= len(ref[2])-n; j-- {
					if x := ref[2][j]; m.farHits[x] >= threshold && !m.page(x).migrating {
						want = append(want, x)
					}
				}
				got, sampled := m.SampleFar(g, budget, threshold, nil)
				if sampled != n || !slices.Equal(got, want) {
					t.Fatalf("SampleFar sampled %d, candidates %v; want %d, %v", sampled, got, n, want)
				}
				ref[2] = append(slices.Clone(ref[2][len(ref[2])-n:]), ref[2][:len(ref[2])-n]...)
				for _, x := range ref[2][:n] {
					if m.flags[x]&flagReferenced != 0 || m.farHits[x] != 0 {
						t.Fatalf("SampleFar left page %d referenced or counted", x)
					}
				}
			case 4: // reference a page, on a list or not
				if f := m.flags[id]; f&flagReferenced == 0 {
					m.flags[id] = f | flagReferenced
					if f&flagOnList != 0 {
						m.listOf(id).refs++
					}
				}
			case 5: // heat a page and flip its in-flight copy
				m.farHits[id] = arg % 4
				m.page(id).migrating = arg&0x40 != 0
			}
			if err := m.checkLRU(); err != nil {
				t.Fatalf("after op %d (kind %d, arg %d): %v", i/2, kind, arg, err)
			}
			for k, l := range lists {
				var got []PageID
				for x := l.head; x != 0; x = m.links[x].next {
					got = append(got, x)
				}
				if !slices.Equal(got, ref[k]) {
					t.Fatalf("after op %d: list %d is %v, want %v", i/2, k, got, ref[k])
				}
			}
		}
	})
}
