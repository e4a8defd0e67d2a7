// Package cloudsim implements simulated cloud object-storage providers with
// the characteristics the SCFS evaluation depends on: realistic access
// latencies, eventual consistency, per-object ACLs tied to provider accounts,
// independent failures (outages, data corruption, lost writes) and usage
// metering compatible with the providers' charging model (free inbound
// traffic, paid outbound traffic, per-request fees, per-GB-month storage).
//
// A Provider is the storage service itself; Client (see client.go) is the
// per-account view handed to SCFS agents, DepSky, and the baselines.
package cloudsim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"scfs/internal/clock"
	"scfs/internal/cloud"
)

// LatencyProfile models the network behaviour of one provider as observed
// from the client site (the paper's clients are in Portugal; providers in the
// US and Europe, with RTTs of tens to ~100 ms).
type LatencyProfile struct {
	// RTT is the fixed round-trip component paid by every request.
	RTT time.Duration
	// UploadBytesPerSec and DownloadBytesPerSec model throughput.
	UploadBytesPerSec   float64
	DownloadBytesPerSec float64
	// JitterFraction adds ±fraction*latency uniform jitter.
	JitterFraction float64
}

// requestLatency computes the simulated duration for a request transferring
// upBytes to the cloud and downBytes back.
func (p LatencyProfile) requestLatency(upBytes, downBytes int, rng *rand.Rand) time.Duration {
	d := p.RTT
	if p.UploadBytesPerSec > 0 && upBytes > 0 {
		d += time.Duration(float64(upBytes) / p.UploadBytesPerSec * float64(time.Second))
	}
	if p.DownloadBytesPerSec > 0 && downBytes > 0 {
		d += time.Duration(float64(downBytes) / p.DownloadBytesPerSec * float64(time.Second))
	}
	if p.JitterFraction > 0 && rng != nil {
		jitter := (rng.Float64()*2 - 1) * p.JitterFraction
		d = time.Duration(float64(d) * (1 + jitter))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// FaultMode selects how a struck request misbehaves. The CoC backend must
// tolerate f providers in any of these modes. Which requests are struck is
// decided by the fault schedule (see FaultSpec in faults.go): SetFault
// strikes everything, SetFaults composes probabilistic, time-windowed and
// counter-windowed predicates.
type FaultMode int

const (
	// FaultNone is normal operation.
	FaultNone FaultMode = iota
	// FaultUnavailable fails struck requests with cloud.ErrUnavailable.
	FaultUnavailable
	// FaultCorrupt makes struck reads return silently corrupted payloads.
	FaultCorrupt
	// FaultLoseWrites acknowledges struck writes but drops the data.
	FaultLoseWrites
	// FaultSlow inflates the latency of struck requests (default 10x, see
	// FaultSpec.LatencyFactor) without any error: a gray, slow-but-correct
	// provider.
	FaultSlow
	// FaultThrottle fails struck requests with cloud.ErrThrottled (the
	// provider's 429/slow-down answer): transient, and the classification
	// the retry/backoff layer exists for.
	FaultThrottle
	// FaultHang accepts the struck request and then never answers: the
	// connection stays open until the caller's context cancels it. The
	// nastiest gray failure — no error, no progress — which only timeouts,
	// hedging and quorum cancellation can mask.
	FaultHang
)

// Options configures a Provider.
type Options struct {
	// Name identifies the provider (e.g. "amazon-s3").
	Name string
	// Latency is the network model. Zero value means no simulated latency.
	Latency LatencyProfile
	// LatencyScale multiplies every simulated delay; 0 means 1.0, the
	// paper's absolute magnitudes. Tests use 0 latency or tiny scales;
	// scfs-bench (scfsbench/) fixes a scale per workload: 0.1 on its WAN
	// rows, 0.02 on the others.
	LatencyScale float64
	// ConsistencyWindow is how long a freshly written object version may
	// remain invisible to readers (eventual consistency). Zero gives
	// read-after-write consistency.
	ConsistencyWindow time.Duration
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Seed seeds the provider's private RNG (jitter, consistency windows).
	Seed int64
}

// storedVersion is one write of an object; reads see the newest visible one.
type storedVersion struct {
	data      []byte
	visibleAt time.Time
	modTime   time.Time
}

type object struct {
	name     string
	owner    string
	grants   map[string]cloud.Permission
	versions []storedVersion // append-only; oldest first
	deleted  bool
}

// newestVisible returns the latest version visible at time now, or nil.
func (o *object) newestVisible(now time.Time) *storedVersion {
	for i := len(o.versions) - 1; i >= 0; i-- {
		if !o.versions[i].visibleAt.After(now) {
			return &o.versions[i]
		}
	}
	return nil
}

// accountState tracks metering for one account.
type accountState struct {
	usage       cloud.Usage
	lastMeterAt time.Time
}

// Provider is a simulated cloud object-storage service.
type Provider struct {
	opts Options
	clk  clock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	objects  map[string]*object
	accounts map[string]*accountState

	// faults is the active fault schedule (see faults.go).
	faults []*faultEntry

	// Counters for observability in tests/experiments.
	totalRequests int64
}

// NewProvider creates a simulated provider.
func NewProvider(opts Options) *Provider {
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if opts.LatencyScale == 0 {
		opts.LatencyScale = 1.0
	}
	if opts.Name == "" {
		opts.Name = "cloud"
	}
	return &Provider{
		opts:     opts,
		clk:      opts.Clock,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		objects:  make(map[string]*object),
		accounts: make(map[string]*accountState),
	}
}

// Name returns the provider name.
func (p *Provider) Name() string { return p.opts.Name }

// CreateAccount registers an account and returns its canonical identifier,
// unique within the provider (mirrors the per-provider canonical user IDs
// SCFS has to map between, §2.6).
func (p *Provider) CreateAccount(user string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := fmt.Sprintf("%s:%s", p.opts.Name, user)
	if _, ok := p.accounts[id]; !ok {
		p.accounts[id] = &accountState{lastMeterAt: p.clk.Now()}
	}
	return id
}

// Client returns the ObjectStore view for a canonical account identifier
// previously returned by CreateAccount.
func (p *Provider) Client(canonicalID string) (cloud.ObjectStore, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.accounts[canonicalID]; !ok {
		return nil, fmt.Errorf("cloudsim: unknown account %q", canonicalID)
	}
	return &client{p: p, account: canonicalID}, nil
}

// MustClient is Client but panics on error; convenient in tests and examples
// where the account was just created.
func (p *Provider) MustClient(canonicalID string) cloud.ObjectStore {
	c, err := p.Client(canonicalID)
	if err != nil {
		panic(err)
	}
	return c
}

// Usage returns a snapshot of the metered usage for an account, with the
// storage byte-hours integrated up to now.
func (p *Provider) Usage(canonicalID string) cloud.Usage {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.accounts[canonicalID]
	if !ok {
		return cloud.Usage{}
	}
	p.meterStorageLocked(st)
	return st.usage
}

// TotalRequests returns the number of API requests served (all accounts).
func (p *Provider) TotalRequests() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totalRequests
}

// ObjectCount returns the number of live (non-deleted) objects stored.
func (p *Provider) ObjectCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, o := range p.objects {
		if !o.deleted && len(o.versions) > 0 {
			n++
		}
	}
	return n
}

// meterStorageLocked integrates byte-hours since the last metering point.
func (p *Provider) meterStorageLocked(st *accountState) {
	now := p.clk.Now()
	elapsed := now.Sub(st.lastMeterAt)
	if elapsed > 0 {
		st.usage.ByteHours += float64(st.usage.StoredBytes) * elapsed.Hours()
	}
	st.lastMeterAt = now
}

// simulateLatency sleeps for the duration of a request outside the lock,
// returning early with ctx.Err() if the caller cancels mid-flight. The
// request's fault decision inflates the sleep for gray-slow requests.
func (p *Provider) simulateLatency(ctx context.Context, upBytes, downBytes int, d decision) error {
	p.mu.Lock()
	base := p.opts.Latency.requestLatency(upBytes, downBytes, p.rng)
	if d.latencyFactor > 0 {
		base = time.Duration(float64(base) * d.latencyFactor)
	}
	scaled := time.Duration(float64(base) * p.opts.LatencyScale)
	p.mu.Unlock()
	return clock.SleepCtx(ctx, p.clk, scaled)
}

// simulateTransfer sleeps only for the payload-transfer component of a
// request (no RTT); used when the payload size is only known after the
// metadata lookup has already been charged.
func (p *Provider) simulateTransfer(ctx context.Context, upBytes, downBytes int, d decision) error {
	p.mu.Lock()
	prof := p.opts.Latency
	prof.RTT = 0
	base := prof.requestLatency(upBytes, downBytes, p.rng)
	if d.latencyFactor > 0 {
		base = time.Duration(float64(base) * d.latencyFactor)
	}
	scaled := time.Duration(float64(base) * p.opts.LatencyScale)
	p.mu.Unlock()
	return clock.SleepCtx(ctx, p.clk, scaled)
}

// hang parks a FaultHang request until the caller gives up: the provider
// accepted the connection and will never answer. The request is counted
// (the bytes did reach the provider) but the operation never executes.
func (p *Provider) hang(ctx context.Context) error {
	p.mu.Lock()
	p.totalRequests++
	p.mu.Unlock()
	<-ctx.Done()
	return ctx.Err()
}

// faultErr wraps a sentinel with provider context, preserving errors.Is
// classification through the chain.
func (p *Provider) faultErr(sentinel error) error {
	return fmt.Errorf("%s: %w", p.opts.Name, sentinel)
}

// opErr translates an error-mode decision into the wrapped sentinel the
// struck request fails with, or nil when the mode corrupts/drops/delays
// instead of erroring.
func (p *Provider) opErr(d decision) error {
	switch d.mode {
	case FaultUnavailable:
		return p.faultErr(cloud.ErrUnavailable)
	case FaultThrottle:
		return p.faultErr(cloud.ErrThrottled)
	default:
		return nil
	}
}

// visibility returns when a write performed now becomes visible.
func (p *Provider) visibilityLocked(now time.Time) time.Time {
	if p.opts.ConsistencyWindow <= 0 {
		return now
	}
	// Uniform in [0, window]: some writes are visible immediately, others
	// only after the full window, as observed on eventually consistent
	// stores.
	w := time.Duration(p.rng.Int63n(int64(p.opts.ConsistencyWindow) + 1))
	w = time.Duration(float64(w) * p.opts.LatencyScale)
	return now.Add(w)
}

func (p *Provider) permFor(o *object, account string) cloud.Permission {
	if o.owner == account {
		return cloud.PermReadWrite
	}
	if perm, ok := o.grants[account]; ok {
		return perm
	}
	return cloud.PermNone
}

// --- operations (called by client with latency already simulated) ---

func (p *Provider) put(account, name string, data []byte, d decision) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.PutRequests++
	st.usage.BytesIn += int64(len(data))
	if err := p.opErr(d); err != nil {
		return err
	}
	o, ok := p.objects[name]
	if !ok || (o.deleted && len(o.versions) == 0) {
		o = &object{name: name, owner: account, grants: make(map[string]cloud.Permission)}
		p.objects[name] = o
	}
	if !p.permFor(o, account).CanWrite() {
		return cloud.ErrAccessDenied
	}
	if d.mode == FaultLoseWrites {
		// Acknowledge but drop: a Byzantine provider.
		return nil
	}
	now := p.clk.Now()
	// Update the owner's storage metering (the object owner pays, matching
	// the pay-per-ownership principle).
	ownerSt := p.accounts[o.owner]
	if ownerSt != nil {
		p.meterStorageLocked(ownerSt)
		if cur := o.newestVisible(now.Add(p.opts.ConsistencyWindow + time.Hour)); cur != nil {
			ownerSt.usage.StoredBytes -= int64(len(cur.data))
		}
		ownerSt.usage.StoredBytes += int64(len(data))
	}
	o.deleted = false
	o.versions = append(o.versions, storedVersion{
		data:      append([]byte(nil), data...),
		visibleAt: p.visibilityLocked(now),
		modTime:   now,
	})
	// Bound version history to avoid unbounded growth in long simulations.
	if len(o.versions) > 8 {
		o.versions = append([]storedVersion(nil), o.versions[len(o.versions)-8:]...)
	}
	return nil
}

func (p *Provider) get(account, name string, d decision) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.GetRequests++
	if err := p.opErr(d); err != nil {
		return nil, err
	}
	o, ok := p.objects[name]
	if !ok || o.deleted {
		return nil, cloud.ErrNotFound
	}
	if !p.permFor(o, account).CanRead() {
		return nil, cloud.ErrAccessDenied
	}
	v := o.newestVisible(p.clk.Now())
	if v == nil {
		return nil, cloud.ErrNotFound
	}
	data := append([]byte(nil), v.data...)
	if d.mode == FaultCorrupt && len(data) > 0 {
		// Flip bytes silently; integrity must be caught by hashes upstream.
		for i := 0; i < len(data); i += 97 {
			data[i] ^= 0x5A
		}
	}
	st.usage.BytesOut += int64(len(data))
	return data, nil
}

func (p *Provider) head(account, name string, d decision) (cloud.ObjectInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.GetRequests++
	if err := p.opErr(d); err != nil {
		return cloud.ObjectInfo{}, err
	}
	o, ok := p.objects[name]
	if !ok || o.deleted {
		return cloud.ObjectInfo{}, cloud.ErrNotFound
	}
	if !p.permFor(o, account).CanRead() {
		return cloud.ObjectInfo{}, cloud.ErrAccessDenied
	}
	v := o.newestVisible(p.clk.Now())
	if v == nil {
		return cloud.ObjectInfo{}, cloud.ErrNotFound
	}
	return cloud.ObjectInfo{Name: o.name, Size: int64(len(v.data)), Owner: o.owner, ModTime: v.modTime}, nil
}

func (p *Provider) delete(account, name string, d decision) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.DeleteRequests++
	if err := p.opErr(d); err != nil {
		return err
	}
	o, ok := p.objects[name]
	if !ok || o.deleted {
		return nil // deleting a non-existent object is a no-op, like S3
	}
	if !p.permFor(o, account).CanWrite() {
		return cloud.ErrAccessDenied
	}
	ownerSt := p.accounts[o.owner]
	if ownerSt != nil {
		p.meterStorageLocked(ownerSt)
		if cur := o.newestVisible(p.clk.Now().Add(p.opts.ConsistencyWindow + time.Hour)); cur != nil {
			ownerSt.usage.StoredBytes -= int64(len(cur.data))
			if ownerSt.usage.StoredBytes < 0 {
				ownerSt.usage.StoredBytes = 0
			}
		}
	}
	o.deleted = true
	o.versions = nil
	return nil
}

func (p *Provider) list(account, prefix string, d decision) ([]cloud.ObjectInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.ListRequests++
	if err := p.opErr(d); err != nil {
		return nil, err
	}
	now := p.clk.Now()
	var out []cloud.ObjectInfo
	for _, o := range p.objects {
		if o.deleted || !strings.HasPrefix(o.name, prefix) {
			continue
		}
		if !p.permFor(o, account).CanRead() {
			continue
		}
		v := o.newestVisible(now)
		if v == nil {
			continue
		}
		out = append(out, cloud.ObjectInfo{Name: o.name, Size: int64(len(v.data)), Owner: o.owner, ModTime: v.modTime})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (p *Provider) setACL(account, name string, grants []cloud.Grant, d decision) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.PutRequests++
	if err := p.opErr(d); err != nil {
		return err
	}
	o, ok := p.objects[name]
	if !ok || o.deleted {
		return cloud.ErrNotFound
	}
	if o.owner != account {
		return cloud.ErrAccessDenied
	}
	o.grants = make(map[string]cloud.Permission, len(grants))
	for _, g := range grants {
		if g.Perm == cloud.PermNone {
			continue
		}
		o.grants[g.Grantee] = g.Perm
	}
	return nil
}

func (p *Provider) getACL(account, name string, d decision) ([]cloud.Grant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalRequests++
	st := p.accounts[account]
	st.usage.GetRequests++
	if err := p.opErr(d); err != nil {
		return nil, err
	}
	o, ok := p.objects[name]
	if !ok || o.deleted {
		return nil, cloud.ErrNotFound
	}
	if o.owner != account {
		return nil, cloud.ErrAccessDenied
	}
	out := make([]cloud.Grant, 0, len(o.grants))
	for grantee, perm := range o.grants {
		out = append(out, cloud.Grant{Grantee: grantee, Perm: perm})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Grantee < out[j].Grantee })
	return out, nil
}
