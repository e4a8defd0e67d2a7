package telemetry

import (
	"sort"
	"sync"
)

// FlightRecorder is the one store of finished traces a traced mount keeps.
// It retains exemplars per operation class so the evidence survives the
// traffic that produced it: a most-recent buffer would let a burst of
// healthy operations evict the one slow or failed trace an operator needed.
// The recorder keeps, per op class (Trace.Op):
//
//   - the slowest slowN (8) traces seen so far, and
//   - the last flaggedN (32) *flagged* traces — errored, breaker-skipped,
//     or in flight across a replica-group view change — regardless of
//     speed.
//
// Total memory is bounded twice over: each trace caps its own span count
// (maxTraceSpans), and the recorder holds at most spanBudget (16384) spans
// across everything it retains, evicting the least interesting exemplars
// (the fastest retained slow traces first, then the oldest flagged ones)
// when a new admission would exceed it.
//
// A nil *FlightRecorder is disabled: every method no-ops.
type FlightRecorder struct {
	mu      sync.Mutex
	classes map[string]*flightClass

	slowN      int
	flaggedN   int
	spanBudget int

	spans    int // spans retained right now, across all classes
	seen     int64
	admitted int64
	evicted  int64
}

// flightClass is one op class's retention state.
type flightClass struct {
	// slow is sorted ascending by duration: slow[0] is the fastest
	// retained exemplar, the first to go when a slower one arrives.
	slow []*Trace
	// flagged is FIFO, oldest first.
	flagged []*Trace
}

// Retention per op class and overall: 8 slowest and 32 flagged traces per
// class, 16384 retained spans in all (~2 MiB of spans at ~128 B each).
const (
	slowPerClass    = 8
	flaggedPerClass = 32
	retainedSpans   = 16384
)

// NewFlightRecorder creates an empty recorder with the retention above.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{
		classes:    make(map[string]*flightClass),
		slowN:      slowPerClass,
		flaggedN:   flaggedPerClass,
		spanBudget: retainedSpans,
	}
}

// traceCost is the span-budget cost of retaining t. The +1 charges the
// trace itself, so span-free traces still consume budget.
func traceCost(t *Trace) int { return t.SpanCount() + 1 }

// offer considers one finished trace for retention. Called by the Tracer
// on every Finish; must only see finished (immutable) traces.
func (fr *FlightRecorder) offer(t *Trace) {
	if fr == nil || t == nil {
		return
	}
	cost := traceCost(t)
	flagged := t.Flagged()
	dur := t.Duration()

	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.seen++
	c := fr.classes[t.Op]
	if c == nil {
		c = &flightClass{}
		fr.classes[t.Op] = c
	}
	if flagged {
		if len(c.flagged) >= fr.flaggedN {
			fr.dropLocked(c.flagged[0])
			copy(c.flagged, c.flagged[1:])
			c.flagged = c.flagged[:len(c.flagged)-1]
		}
		c.flagged = append(c.flagged, t)
	} else {
		if len(c.slow) >= fr.slowN {
			if dur <= c.slow[0].Duration() {
				return // faster than every retained exemplar
			}
			fr.dropLocked(c.slow[0])
			copy(c.slow, c.slow[1:])
			c.slow = c.slow[:len(c.slow)-1]
		}
		// Insert keeping ascending duration order; slowN is small, so a
		// linear scan beats heap bookkeeping.
		i := sort.Search(len(c.slow), func(i int) bool { return c.slow[i].Duration() > dur })
		c.slow = append(c.slow, nil)
		copy(c.slow[i+1:], c.slow[i:])
		c.slow[i] = t
	}
	fr.admitted++
	fr.spans += cost
	fr.enforceBudgetLocked()
}

// dropLocked accounts for one evicted trace.
func (fr *FlightRecorder) dropLocked(t *Trace) {
	fr.spans -= traceCost(t)
	fr.evicted++
}

// enforceBudgetLocked evicts exemplars until the span budget holds again:
// fastest retained slow traces first (across all classes), then oldest
// flagged ones. The most recently admitted trace is evicted last only if
// it alone exceeds the whole budget.
func (fr *FlightRecorder) enforceBudgetLocked() {
	for fr.spans > fr.spanBudget {
		if fr.retainedLocked() <= 1 {
			return // never evict the last exemplar chasing an unmeetable budget
		}
		var victimClass *flightClass
		victimFlagged := false
		// Fastest slow exemplar anywhere.
		for _, c := range fr.classes {
			if len(c.slow) == 0 {
				continue
			}
			if victimClass == nil || c.slow[0].Duration() < victimClass.slow[0].Duration() {
				victimClass = c
			}
		}
		if victimClass == nil {
			// No slow exemplars left: oldest flagged trace anywhere.
			var oldest *Trace
			for _, c := range fr.classes {
				if len(c.flagged) == 0 {
					continue
				}
				if oldest == nil || c.flagged[0].Start.Before(oldest.Start) {
					victimClass, oldest = c, c.flagged[0]
				}
			}
			victimFlagged = true
		}
		if victimClass == nil {
			return // nothing retained; a pathological budget
		}
		if victimFlagged {
			fr.dropLocked(victimClass.flagged[0])
			copy(victimClass.flagged, victimClass.flagged[1:])
			victimClass.flagged = victimClass.flagged[:len(victimClass.flagged)-1]
		} else {
			fr.dropLocked(victimClass.slow[0])
			copy(victimClass.slow, victimClass.slow[1:])
			victimClass.slow = victimClass.slow[:len(victimClass.slow)-1]
		}
	}
}

// retainedLocked counts currently retained traces.
func (fr *FlightRecorder) retainedLocked() int {
	n := 0
	for _, c := range fr.classes {
		n += len(c.slow) + len(c.flagged)
	}
	return n
}

// Classes returns the op classes with retained traces, sorted.
func (fr *FlightRecorder) Classes() []string {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]string, 0, len(fr.classes))
	for k, c := range fr.classes {
		if len(c.slow)+len(c.flagged) > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Slowest returns the retained slow exemplars of one op class, slowest
// first.
func (fr *FlightRecorder) Slowest(class string) []*Trace {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	c := fr.classes[class]
	if c == nil {
		return nil
	}
	out := make([]*Trace, len(c.slow))
	for i, t := range c.slow {
		out[len(out)-1-i] = t
	}
	return out
}

// Flagged returns the retained flagged exemplars of one op class, newest
// first.
func (fr *FlightRecorder) Flagged(class string) []*Trace {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	c := fr.classes[class]
	if c == nil {
		return nil
	}
	out := make([]*Trace, len(c.flagged))
	for i, t := range c.flagged {
		out[len(out)-1-i] = t
	}
	return out
}

// FlightStats summarizes a recorder's activity.
type FlightStats struct {
	// Seen counts every finished trace offered to the recorder.
	Seen int64 `json:"seen"`
	// Admitted counts traces that were retained (some later evicted).
	Admitted int64 `json:"admitted"`
	// Evicted counts retained traces later displaced by better exemplars
	// or the span budget.
	Evicted int64 `json:"evicted"`
	// Retained is the number of traces held right now.
	Retained int `json:"retained"`
	// Spans is the span-budget consumption right now.
	Spans int `json:"spans"`
	// SpanBudget is the global span budget.
	SpanBudget int `json:"span_budget"`
}

// Stats returns the recorder's activity counters.
func (fr *FlightRecorder) Stats() FlightStats {
	if fr == nil {
		return FlightStats{}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return FlightStats{
		Seen:       fr.seen,
		Admitted:   fr.admitted,
		Evicted:    fr.evicted,
		Retained:   fr.retainedLocked(),
		Spans:      fr.spans,
		SpanBudget: fr.spanBudget,
	}
}
