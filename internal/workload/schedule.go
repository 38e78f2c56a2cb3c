package workload

import "tmo/internal/mm"

// touchSchedule decides which touchable classes (Period > 0 and at least
// one page) a request touches. Each class earns fractional touch credit,
// step per request, and spends each whole unit on one touch. Rather than
// add to every class on every request, each class precomputes the request
// number at which its credit next reaches 1, so a request that touches
// nothing costs one compare. The precomputation performs the very additions
// a per-request loop would, in the same order on the same float64 values,
// so the touch sequence is bit-identical to one.
type touchSchedule struct {
	classes []toucher // in class order
	reqs    uint64    // requests served so far
	due     uint64    // the earliest due request over classes
}

// toucher is one touchable access class. pages shares the class's backing
// array in classPages, so shiftPhase's in-place swaps are visible here.
type toucher struct {
	pages  []mm.PageID
	rate   float64 // expected touches per request at load 1
	step   float64 // credit earned per request: rate times the load factor
	credit float64 // fractional touch credit as of request at
	at     uint64
	// due is the next request at which the class settles: its credit has
	// reached dueCredit, at least 1 unless the lookahead ran out first.
	due       uint64
	dueCredit float64
	owed      int // touches the current request owes, once settled
}

// never is the due request of a class that earns no credit.
const never = ^uint64(0)

// maxLookahead bounds how many requests a schedule computes ahead, so a
// load change, which a chaos ramp makes every tick, replays and reschedules
// each class in at most that many additions apiece. A class too slow to
// reach 1 within it settles without touching every maxLookahead requests.
const maxLookahead = 256

// add appends a class earning rate touches per request at load factor
// load. Call reset once the classes are added.
func (s *touchSchedule) add(pages []mm.PageID, rate, load float64) {
	s.classes = append(s.classes, toucher{pages: pages, rate: rate, step: rate * load})
}

// next counts one request and reports whether any class is due at it; if
// so the caller must call settle, then spend every class's owed touches,
// before the next request.
func (s *touchSchedule) next() bool {
	s.reqs++
	return s.reqs == s.due
}

// settle sets every class's owed touches for the current request, zero for
// those not due, and schedules the classes that were due onwards.
func (s *touchSchedule) settle() {
	s.due = never
	for i := range s.classes {
		t := &s.classes[i]
		t.owed = 0
		if t.due == s.reqs {
			c := t.dueCredit
			for c >= 1 {
				c--
				t.owed++
			}
			t.credit = c
			t.schedule(s.reqs)
		}
		s.due = min(s.due, t.due)
	}
}

// setLoad rescales every class's step to load from the next request on:
// credit is first brought up to the current request at the old step.
func (s *touchSchedule) setLoad(load float64) {
	s.due = never
	for i := range s.classes {
		t := &s.classes[i]
		if t.step != 0 {
			_, t.credit = advance(t.credit, t.step, s.reqs-t.at)
		}
		t.step = t.rate * load
		t.schedule(s.reqs)
		s.due = min(s.due, t.due)
	}
}

// reset drops every class's credit as of the current request.
func (s *touchSchedule) reset() {
	s.due = never
	for i := range s.classes {
		t := &s.classes[i]
		t.credit = 0
		t.schedule(s.reqs)
		s.due = min(s.due, t.due)
	}
}

// schedule computes, from the credit held as of request from, the request
// at which the class next settles.
func (t *toucher) schedule(from uint64) {
	t.at = from
	if t.step == 0 {
		t.due = never
		return
	}
	n, c := advance(t.credit, t.step, maxLookahead)
	t.due, t.dueCredit = from+n, c
}

// advance adds step s to credit c once per request until c reaches 1 or
// limit requests have passed, and returns the requests taken and the credit
// then: the same additions, in the same order, as the per-request loop.
func advance(c, s float64, limit uint64) (n uint64, _ float64) {
	for c < 1 && n < limit {
		c += s
		n++
	}
	return n, c
}
