package cloudsim

// OpKind identifies one ObjectStore operation for fault targeting.
type OpKind int

const (
	// OpPut is ObjectStore.Put.
	OpPut OpKind = iota
	// OpGet is ObjectStore.Get.
	OpGet
	// OpHead is ObjectStore.Head.
	OpHead
	// OpDelete is ObjectStore.Delete.
	OpDelete
	// OpList is ObjectStore.List.
	OpList
	// OpACL covers SetACL and GetACL.
	OpACL
)

// OpMask selects the operations a FaultSpec applies to; zero means all.
type OpMask uint

const (
	// MaskPut selects Put requests.
	MaskPut OpMask = 1 << OpPut
	// MaskGet selects Get requests.
	MaskGet OpMask = 1 << OpGet
	// MaskHead selects Head requests.
	MaskHead OpMask = 1 << OpHead
	// MaskDelete selects Delete requests.
	MaskDelete OpMask = 1 << OpDelete
	// MaskList selects List requests.
	MaskList OpMask = 1 << OpList
	// MaskACL selects SetACL/GetACL requests.
	MaskACL OpMask = 1 << OpACL

	// MaskReads selects the read-side operations.
	MaskReads = MaskGet | MaskHead | MaskList
	// MaskWrites selects the write-side operations.
	MaskWrites = MaskPut | MaskDelete
	// MaskAll selects every operation (same as zero, but explicit).
	MaskAll = MaskPut | MaskGet | MaskHead | MaskDelete | MaskList | MaskACL
)

func (m OpMask) matches(op OpKind) bool {
	return m == 0 || m&(1<<op) != 0
}

// FaultSpec is one entry of a provider's fault schedule: a fault Mode plus
// the predicate deciding which requests it strikes. Predicates compose —
// a spec can say "30% of Get requests", "every write", or "the first 3
// requests after the next 10". The zero predicate
// (only Mode set) strikes every request, reproducing the old static
// SetFault behaviour.
//
// A schedule holds any number of specs; each request is tested against them
// in order and the first spec that fires decides the request's fate. Specs
// are evaluated per request, so probabilistic flake rates and
// counter-windowed faults interleave healthy and faulty responses the way
// a real gray-failing provider does.
type FaultSpec struct {
	// Mode is how a struck request misbehaves.
	Mode FaultMode
	// Ops selects which operations the spec applies to (0 = all).
	Ops OpMask
	// Probability in (0, 1) strikes each matching request independently at
	// that rate; 0 (and anything >= 1) strikes every matching request.
	Probability float64
	// AfterN lets the first N matching requests through unharmed before the
	// spec starts striking (an "outage mid-run" in request counts).
	AfterN int64
	// FirstN strikes only the first N matching requests past AfterN, then
	// retires the spec (0 = no limit). A flaky startup, a bounded burst, or
	// with AfterN a windowed outage that heals itself, no second SetFaults
	// call needed.
	FirstN int64
	// LatencyFactor inflates the simulated latency of struck requests in
	// FaultSlow mode (0 means the classic 10x). Ignored by other modes.
	LatencyFactor float64
}

// faultEntry is an installed spec plus its runtime counters.
type faultEntry struct {
	spec FaultSpec
	seen int64 // matching requests observed (for AfterN/FirstN)
}

// decision is the fate of one request, settled once at request entry and
// honoured by both the latency-simulation phase and the operation itself,
// so a struck request misbehaves coherently end to end.
type decision struct {
	mode          FaultMode
	latencyFactor float64 // 0 = 1.0
}

var healthy = decision{mode: FaultNone}

// SetFaults replaces the provider's fault schedule. Specs are evaluated in
// the given order; the first one that fires decides each request. Request
// counts (AfterN/FirstN) start from this call.
func (p *Provider) SetFaults(specs ...FaultSpec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = p.faults[:0]
	for _, s := range specs {
		if s.Mode == FaultNone {
			continue
		}
		p.faults = append(p.faults, &faultEntry{spec: s})
	}
}

// ClearFaults heals the provider: the whole schedule is dropped.
func (p *Provider) ClearFaults() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults = p.faults[:0]
}

// SetFault switches the provider to one unconditional fault mode, replacing
// any installed schedule; FaultNone heals.
func (p *Provider) SetFault(mode FaultMode) { p.SetFaults(FaultSpec{Mode: mode}) }

// beginRequest settles the fate of one incoming request against the fault
// schedule: the first spec whose predicate fires wins. Counters advance
// even for specs that end up not firing this request (AfterN counts the
// requests that got through), so schedules behave deterministically under
// sequential traffic.
func (p *Provider) beginRequest(op OpKind) decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.faults) == 0 {
		return healthy
	}
	for _, e := range p.faults {
		s := &e.spec
		if !s.Ops.matches(op) {
			continue
		}
		e.seen++
		if e.seen <= s.AfterN {
			continue
		}
		if s.FirstN > 0 && e.seen > s.AfterN+s.FirstN {
			continue
		}
		if s.Probability > 0 && s.Probability < 1 && p.rng.Float64() >= s.Probability {
			continue
		}
		d := decision{mode: s.Mode}
		if s.Mode == FaultSlow {
			d.latencyFactor = s.LatencyFactor
			if d.latencyFactor <= 0 {
				d.latencyFactor = 10
			}
		}
		return d
	}
	return healthy
}
