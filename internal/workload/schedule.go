package workload

import "tmo/internal/mm"

// touchSchedule decides which touchable classes (Period > 0 and at least
// one page) a request touches. Each class earns touch credit, step per
// request, and spends each whole unit on one touch. Credit and step are
// 32.32 fixed-point integers, so the credit a class holds at any request is
// exact: credit as of request at plus (request − at)·step. Rather than add
// to every class on every request, each class computes with one division
// the request at which its credit next reaches one, so a request that
// touches nothing costs one compare, and the touch sequence is the one a
// per-request integer loop gives.
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
	step   uint64  // credit earned per request: fixed(rate times the load factor)
	credit uint64  // touch credit as of request at, below one
	at     uint64
	due    uint64 // the first request at which the class's credit reaches one
	owed   int    // touches the current request owes, once settled
}

const (
	// one is one touch of credit in 32.32 fixed point.
	one = 1 << 32
	// maxTouches caps the touches a class owes per request: a rate times
	// load above it saturates there. At the cap neither a step nor a
	// class's credit at its due request (below one plus a step) can wrap,
	// and a surge of any size costs at most maxTouches touches per class
	// per request.
	maxTouches = 64
	// never is the due request of a class that earns no credit.
	never = ^uint64(0)
)

// fixed converts touches per request to a 32.32 step, rounded to nearest.
// It is total: NaN, zero and negative rates earn nothing, and rates from
// maxTouches up, +Inf included, saturate at maxTouches.
func fixed(touches float64) uint64 {
	if !(touches > 0) {
		return 0
	}
	if touches >= maxTouches {
		return maxTouches * one
	}
	return uint64(touches*one + 0.5)
}

// add appends a class earning rate touches per request at load factor
// load. Call reset once the classes are added.
func (s *touchSchedule) add(pages []mm.PageID, rate, load float64) {
	s.classes = append(s.classes, toucher{pages: pages, rate: rate, step: fixed(rate * load)})
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
			c := t.credit + (s.reqs-t.at)*t.step
			t.owed = int(c >> 32)
			t.credit = c & (one - 1)
			t.schedule(s.reqs)
		}
		s.due = min(s.due, t.due)
	}
}

// setLoad rescales every class's step to load from the next request on. A
// class whose step changes first brings its credit up to the current
// request at the old step; one whose step does not is left as it was.
func (s *touchSchedule) setLoad(load float64) {
	s.due = never
	for i := range s.classes {
		t := &s.classes[i]
		if step := fixed(t.rate * load); step != t.step {
			t.credit += (s.reqs - t.at) * t.step
			t.step = step
			t.schedule(s.reqs)
		}
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

// schedule computes, from the credit held as of request from, the first
// request at which it reaches one: from + ⌈(one − credit) / step⌉.
func (t *toucher) schedule(from uint64) {
	t.at = from
	if t.step == 0 {
		t.due = never
		return
	}
	t.due = from + (one-t.credit+t.step-1)/t.step
}
