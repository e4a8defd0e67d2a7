package iopolicy

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sampleWindow is how many recent samples each latency series' percentile
// estimate is computed over. 64 samples keep the estimate responsive to
// provider weather while smoothing per-request jitter; sorting 64 int64s on
// demand is far cheaper than any RPC the answer gates.
const sampleWindow = 64

// ewmaAlpha weighs the newest sample in the exponentially weighted moving
// average used for ranking clouds.
const ewmaAlpha = 0.2

// OpClass distinguishes the direction of one cloud RPC. Downloads and
// uploads move through different bottlenecks (egress vs ingress bandwidth,
// read vs write amplification at the provider), so their latency series are
// tracked separately — a hedge delay for a shard upload must not be computed
// from point-GET latencies — and so are their breakers: a throttled ingress
// path says little about egress health.
type OpClass int

const (
	// OpGet is a download (metadata, block or chunk fetch).
	OpGet OpClass = iota
	// OpPut is an upload (block, chunk or metadata write).
	OpPut

	opClasses = 2
)

// sizeBuckets is how many payload-size buckets each class is split into: a
// 64-byte metadata object and a 1 MiB shard share a cloud but not a latency
// distribution. Buckets are coarse on purpose — enough to separate "request
// dominated" from "transfer dominated" without starving any series of
// samples.
const sizeBuckets = 3

// sizeBucket buckets a payload size: requests up to 128 KiB are
// RTT-dominated, up to 2 MiB they are mixed (one default chunk and its
// erasure shards land here), beyond that transfer time dominates.
func sizeBucket(bytes int) int {
	switch {
	case bytes <= 128<<10:
		return 0
	case bytes <= 2<<20:
		return 1
	default:
		return 2
	}
}

// Op identifies the latency series and the breaker one RPC belongs to: its
// direction and payload size. Construct with GetOp/PutOp.
type Op struct {
	Class OpClass
	Bytes int
}

// GetOp is the Op of a download of the given payload size.
func GetOp(bytes int) Op { return Op{Class: OpGet, Bytes: bytes} }

// PutOp is the Op of an upload of the given payload size.
func PutOp(bytes int) Op { return Op{Class: OpPut, Bytes: bytes} }

// Staleness decay: a series that stops receiving samples says less and less
// about the cloud's present. Only successful RPCs are recorded, so a cloud
// that turns slow or broken gets demoted — and then stops producing samples,
// which without decay would freeze its bad EWMA forever ("slow once during
// warmup, ranked slow for the rest of the mount"). After decayGrace of
// silence the read-side EWMA decays toward zero with half-life
// decayHalfLife, which ranks the silent cloud like an unexplored one:
// optimistically early, so it gets probed and re-measured instead of exiled.
const (
	// decayGrace is how long a series stays fully trusted after its last
	// sample. Long enough that ordinary request spacing (and fast-running
	// tests) see no decay at all.
	decayGrace = 10 * time.Second
	// decayHalfLife halves the stale EWMA per interval past the grace
	// period; ~30s of silence discounts a cloud to an eighth of its last
	// known latency, enough to re-enter most preferred sets.
	decayHalfLife = 10 * time.Second
)

// series is one (cloud, class, size-bucket) latency history.
type series struct {
	samples [sampleWindow]int64 // nanoseconds, ring buffer
	next    int
	count   int64 // total observations (ring holds min(count, sampleWindow))
	ewma    float64
	last    int64 // unix nanoseconds of the latest observation
}

func (s *series) observe(d time.Duration, now time.Time) {
	ns := float64(d)
	if s.count == 0 {
		s.ewma = ns
	} else {
		s.ewma = ewmaAlpha*ns + (1-ewmaAlpha)*s.ewma
	}
	s.samples[s.next] = int64(d)
	s.next = (s.next + 1) % sampleWindow
	s.count++
	s.last = now.UnixNano()
}

// decayedEWMA returns the EWMA discounted for staleness as of now. The
// stored value is never mutated — a fresh sample resumes from the true
// average, not the discounted one.
func (s *series) decayedEWMA(now time.Time) float64 {
	idle := now.Sub(time.Unix(0, s.last)) - decayGrace
	if idle <= 0 {
		return s.ewma
	}
	return s.ewma * math.Pow(0.5, float64(idle)/float64(decayHalfLife))
}

// BreakerState is the classic three-state machine of one breaker.
type BreakerState int

const (
	// BreakerClosed is normal operation: requests flow, failures count.
	BreakerClosed BreakerState = iota
	// BreakerOpen means the cloud is suspected: requests should be demoted
	// or skipped until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits probe requests after the cooldown; one success
	// closes the breaker, one transient failure reopens it.
	BreakerHalfOpen
)

// BreakerPolicy tunes the per-(cloud, direction) breakers of a Scoreboard.
type BreakerPolicy struct {
	// FailureThreshold is how many consecutive transient failures open the
	// breaker; <= 0 means 4.
	FailureThreshold int
	// Cooldown is how long an open breaker holds before admitting a probe;
	// <= 0 means 2s.
	Cooldown time.Duration
}

// breaker is one (cloud, direction) state machine. Guarded by the
// Scoreboard's mutex.
type breaker struct {
	state    BreakerState
	failures int       // consecutive transient failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// cloudScore is everything the scoreboard knows of one cloud: a latency
// series per (direction, payload-size bucket) and a breaker per direction.
type cloudScore struct {
	s        [opClasses][sizeBuckets]series
	breakers [opClasses]breaker
}

// lookup returns the series for op, falling back — when that exact series
// has no samples yet — to the nearest populated bucket of the same class,
// then to the other class (same-bucket-first). A cold (class, bucket) pair
// thus borrows the best available signal instead of reporting "unknown"
// until its own traffic arrives; the fallback result is read-only.
func (c *cloudScore) lookup(op Op) *series {
	b := sizeBucket(op.Bytes)
	for _, cl := range [2]OpClass{op.Class, (op.Class + 1) % opClasses} {
		if s := &c.s[cl][b]; s.count > 0 {
			return s
		}
		for dist := 1; dist < sizeBuckets; dist++ {
			for _, nb := range []int{b - dist, b + dist} {
				if nb >= 0 && nb < sizeBuckets && c.s[cl][nb].count > 0 {
					return &c.s[cl][nb]
				}
			}
		}
	}
	return nil
}

// Scoreboard is what dispatch knows of each cloud of one deployment, per
// direction: how fast it answers and whether it is failing. It is fed the
// outcome of every per-cloud RPC attempt (Record) and answers the
// dispatch-time questions: in which order to contact the clouds (Rank),
// how long a hedged fan-out waits before its spares (HedgeDelay), whether a
// cloud is suspected (Suspected) and whether a request may probe it
// (Admit). Safe for concurrent use; one mutex guards all of it.
//
// Latencies are tracked per (cloud, direction, payload-size bucket), so the
// hedge delay of a 1 MiB shard upload is computed from comparable uploads
// and not polluted by sub-millisecond metadata GETs (or vice versa).
// Queries for a series with no samples yet fall back to the nearest
// populated series of the same cloud. Only successful RPCs are sampled: a
// failing provider answers quickly with an error, and sampling that would
// make a broken cloud look fast.
//
// Health is a circuit breaker per (cloud, direction). The scoreboard never
// decides availability by itself — the quorum layer keeps contacting
// suspected clouds when it has no cheaper way to assemble a quorum. What it
// changes is priority (suspected clouds rank last) and spend (retry budgets
// stop being burned on a cloud that is failing everything).
type Scoreboard struct {
	pol        BreakerPolicy
	transition func(cloud int, class OpClass, from, to BreakerState)

	mu     sync.Mutex
	now    func() time.Time
	clouds []cloudScore
}

// NewScoreboard creates the scoreboard of n clouds under pol. transition
// (nil: none) sees every breaker state change; it runs with the
// scoreboard's lock held, so it must be cheap and must not call back into
// the Scoreboard.
func NewScoreboard(n int, pol BreakerPolicy, transition func(cloud int, class OpClass, from, to BreakerState)) *Scoreboard {
	if pol.FailureThreshold <= 0 {
		pol.FailureThreshold = 4
	}
	if pol.Cooldown <= 0 {
		pol.Cooldown = 2 * time.Second
	}
	return &Scoreboard{pol: pol, transition: transition, now: time.Now, clouds: make([]cloudScore, n)}
}

// Record feeds the outcome of one RPC attempt of op against cloud i, which
// took d. A success adds d to the latency series. The breaker sees every
// attempt: successes and permanent application errors (not-found, access
// denied — the provider answered, it is healthy) close it and reset the
// failure count; transient failures count toward the threshold (and reopen
// a half-open breaker immediately). Context errors are ignored: they
// describe the caller, not the cloud.
func (s *Scoreboard) Record(i int, op Op, d time.Duration, err error) {
	if Ignorable(err) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	c := &s.clouds[i]
	if err == nil && d >= 0 {
		c.s[op.Class][sizeBucket(op.Bytes)].observe(d, now)
	}
	br := &c.breakers[op.Class]
	s.advanceLocked(i, op.Class, br, now)
	if err == nil || !retryable(err) {
		s.transitionLocked(i, op.Class, br, BreakerClosed)
		br.failures = 0
		br.probing = false
		return
	}
	switch br.state {
	case BreakerHalfOpen:
		// The probe failed: back to open, restart the cooldown.
		s.transitionLocked(i, op.Class, br, BreakerOpen)
		br.openedAt = now
		br.probing = false
	case BreakerClosed:
		br.failures++
		if br.failures >= s.pol.FailureThreshold {
			s.transitionLocked(i, op.Class, br, BreakerOpen)
			br.openedAt = now
			br.failures = 0
		}
	}
}

// transitionLocked applies a state change and notifies the observer when
// the state actually changed.
func (s *Scoreboard) transitionLocked(i int, class OpClass, br *breaker, to BreakerState) {
	from := br.state
	br.state = to
	if from != to && s.transition != nil {
		s.transition(i, class, from, to)
	}
}

// advanceLocked moves an open breaker to half-open once its cooldown has
// elapsed.
func (s *Scoreboard) advanceLocked(i int, class OpClass, br *breaker, now time.Time) {
	if br.state == BreakerOpen && now.Sub(br.openedAt) >= s.pol.Cooldown {
		s.transitionLocked(i, class, br, BreakerHalfOpen)
		br.probing = false
	}
}

// suspectedLocked reports whether cloud i's breaker for class is open with
// its cooldown still running.
func (s *Scoreboard) suspectedLocked(i int, class OpClass, now time.Time) bool {
	br := &s.clouds[i].breakers[class]
	s.advanceLocked(i, class, br, now)
	return br.state == BreakerOpen
}

// Suspected reports whether cloud i is currently suspected for op's
// direction: its breaker is open and the cooldown has not yet elapsed. A
// half-open breaker (cooldown elapsed) is not suspected — the cloud is due
// a probe.
func (s *Scoreboard) Suspected(i int, op Op) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suspectedLocked(i, op.Class, s.now())
}

// Admit reports whether cloud i should be issued a request of op's
// direction right now. Closed breakers admit everything; an open breaker
// admits nothing until its cooldown elapses, then admits exactly one probe
// at a time (half-open). Callers that cannot afford to skip a cloud — a
// quorum that needs it — are free to ignore a false answer; Record keeps
// the state honest either way.
func (s *Scoreboard) Admit(i int, op Op) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := &s.clouds[i].breakers[op.Class]
	s.advanceLocked(i, op.Class, br, s.now())
	switch br.state {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		if br.probing {
			return false
		}
		br.probing = true
		return true
	default:
		return true
	}
}

// Rank returns all cloud indices in dispatch order for op — Basil's rule,
// fastest quorum first, suspects last. Clouds whose breaker for op's
// direction is open go to the back; within each part clouds are ordered
// fastest first by the staleness-discounted EWMA of op's series. Clouds
// with no samples yet rank first (optimistically, so they get explored and
// sampled) — and so, increasingly, do clouds whose series have gone silent,
// which is how a breaker-recovered cloud re-enters preferred sets. Ties
// break by index for determinism.
func (s *Scoreboard) Rank(op Op) []int {
	s.mu.Lock()
	now := s.now()
	ewmas := make([]float64, len(s.clouds))
	suspected := make([]bool, len(s.clouds))
	for i := range s.clouds {
		if ser := s.clouds[i].lookup(op); ser != nil {
			ewmas[i] = ser.decayedEWMA(now)
		}
		suspected[i] = s.suspectedLocked(i, op.Class, now)
	}
	s.mu.Unlock()

	order := make([]int, len(ewmas))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if suspected[ia] != suspected[ib] {
			return suspected[ib]
		}
		return ewmas[ia] < ewmas[ib]
	})
	return order
}

// percentile returns the p-th (0 < p <= 1) latency quantile of cloud i's
// recent samples for op (with the cold-series fallback) and whether any
// sample was available.
func (s *Scoreboard) percentile(i int, op Op, p float64) (time.Duration, bool) {
	if p <= 0 {
		return 0, false
	}
	if p > 1 {
		p = 1
	}
	s.mu.Lock()
	ser := s.clouds[i].lookup(op)
	if ser == nil {
		s.mu.Unlock()
		return 0, false
	}
	n := int(min(ser.count, sampleWindow))
	window := make([]int64, n)
	copy(window, ser.samples[:n])
	s.mu.Unlock()

	sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
	idx := min(max(int(float64(n)*p+0.5)-1, 0), n-1)
	return time.Duration(window[idx]), true
}

// DefaultMinDelay is the hedge-delay floor applied when a policy sets no
// MinDelay of its own. A tracked percentile measures the RPC alone; the
// quorum verdict additionally needs scheduling and decoding time, so
// against very fast (same-region, simulated, cached) clouds a raw
// sub-millisecond percentile would fire the hedge before the preferred
// responses can possibly be processed, silently degrading hedged dispatch
// to full fan-out. One millisecond is negligible against any cross-provider
// RTT while keeping near-instant backends honestly hedged.
const DefaultMinDelay = time.Millisecond

// HedgeDelay computes the hedge delay for a fan-out of op whose preferred
// set is the given cloud indices: the largest of the preferred clouds'
// h.Percentile quantiles, clamped to [max(h.MinDelay, DefaultMinDelay),
// h.MaxDelay]. With no samples at all the delay is the floor — a cold
// scoreboard hedges almost immediately, which is safe: it degrades toward
// the pre-policy full fan-out rather than stalling.
func (s *Scoreboard) HedgeDelay(op Op, h Hedge, preferred []int) time.Duration {
	var d time.Duration
	for _, i := range preferred {
		if q, ok := s.percentile(i, op, h.Percentile); ok && q > d {
			d = q
		}
	}
	min := h.MinDelay
	if min <= 0 {
		min = DefaultMinDelay
	}
	if d < min {
		d = min
	}
	if h.MaxDelay > 0 && d > h.MaxDelay {
		d = h.MaxDelay
	}
	return d
}
