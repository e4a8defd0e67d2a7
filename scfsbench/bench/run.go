package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"scfs/internal/cloud"
	"scfs/internal/core"
	"scfs/scfsbench/spans"
)

// Class is one kind of timed call. A script step makes one or more of them:
// a create_unlink step times a create and an unlink, a share step a
// share_read on agent B and a share_close on agent A.
type Class uint8

const (
	CWriteSmall Class = iota
	CWriteLarge
	CColdSmall
	CColdLarge
	CWarmRead
	CCreate
	CUnlink
	CRename
	CStat
	CReadDir
	CShareClose
	CShareRead
	CShare // share_read + share_close of one step
	numClasses
)

var classNames = [numClasses]string{
	"write_small", "write_large", "cold_small", "cold_large", "warm_read",
	"create", "unlink", "rename", "stat", "readdir",
	"share_close", "share_read", "share",
}

func (c Class) String() string { return classNames[c] }

// Tally counts the script steps of one kind. A step that returned an error
// and a step that read bytes other than the ones the script last wrote
// (stale) are failed steps; the harness never retries and never aborts.
type Tally struct {
	Attempted int `json:"attempted"`
	Errors    int `json:"errors"`
	Stale     int `json:"stale"`
}

// Pass is what one timed replay of a script measured.
type Pass struct {
	Wall    time.Duration
	Steps   int   // script steps completed, failed or not
	Bytes   int64 // verified user bytes read and written
	Written int64 // the part of Bytes written
	Fetched int64 // the part of Bytes read by cold and share reads, which come from the clouds
	Tallies [numKinds]Tally
	Samples [numClasses][]float64 // milliseconds, successful calls only, sorted
	// P50 is each class's median as the end-to-end metrics report it: the
	// median over time slices of the slice's median (see slicedMedian).
	P50 [numClasses]float64
	at  [numClasses][]float64 // a client's samples' completion times, seconds into the replay

	Rounds     int
	CollectMs  []float64
	GCVersions int
	Usage      []cloud.Usage // metered deltas over the pass, per provider
	StatsA     core.Stats    // agent A's counter deltas over the pass
	FirstError string
}

// Attempted and Failed sum the tallies.
func (p *Pass) Attempted() (attempted, failed int) {
	for _, t := range p.Tallies {
		attempted += t.Attempted
		failed += t.Errors + t.Stale
	}
	return
}

// client is one closed-loop client goroutine: it issues its next step only
// after the previous one returned.
type client struct {
	id   int
	env  *Env
	data *payloads

	versions map[string]uint32
	coldS    int
	coldL    int
	slot     int
	hot      int
	scratch  int

	pass  *Pass // private to the client until merged
	epoch time.Time
}

func newClient(id int, env *Env, seed int64) *client {
	return &client{id: id, env: env, data: newPayloads(seed), versions: make(map[string]uint32), pass: &Pass{}}
}

// call times f as one call of the class, under a root span on a traced pass.
func (c *client) call(ctx context.Context, class Class, f func(ctx context.Context) error) (float64, error) {
	rec := c.env.recorder()
	ctx, sp := rec.StartOp(ctx, class.String())
	start := time.Now()
	err := f(ctx)
	ms := float64(time.Since(start)) / 1e6
	sp.End(0, outcome(err))
	if err == nil {
		c.sample(class, ms)
	}
	return ms, err
}

func (c *client) sample(class Class, ms float64) {
	c.pass.Samples[class] = append(c.pass.Samples[class], ms)
	c.pass.at[class] = append(c.pass.at[class], time.Since(c.epoch).Seconds())
}

func (c *client) write(ctx context.Context, m mount, class Class, size sizeClass, path string) error {
	v := c.versions[path] + 1
	_, err := c.call(ctx, class, func(ctx context.Context) error {
		return m.WriteFile(ctx, path, c.data.content(size, path, v))
	})
	if err == nil {
		c.versions[path] = v
		c.pass.Bytes += int64(classBytes[size])
		c.pass.Written += int64(classBytes[size])
	}
	return err
}

// read returns (stale, err).
func (c *client) read(ctx context.Context, m mount, class Class, size sizeClass, path string) (bool, error) {
	var data []byte
	_, err := c.call(ctx, class, func(ctx context.Context) error {
		var err error
		data, err = m.ReadFile(ctx, path)
		return err
	})
	if err != nil {
		return false, err
	}
	if !c.data.verify(size, path, c.versions[path], data) {
		// The sample of a stale read is withdrawn: failed steps contribute
		// no latency.
		n := len(c.pass.Samples[class]) - 1
		c.pass.Samples[class], c.pass.at[class] = c.pass.Samples[class][:n], c.pass.at[class][:n]
		return true, nil
	}
	c.pass.Bytes += int64(len(data))
	if class != CWarmRead {
		c.pass.Fetched += int64(len(data))
	}
	return false, nil
}

// step runs one script step and tallies it.
func (c *client) step(ctx context.Context, st Step) {
	l := c.env.W.Layout
	a, b := c.env.A, c.env.B
	var (
		err   error
		stale bool
	)
	switch st.Kind {
	case WriteSmall:
		err = c.write(ctx, a, CWriteSmall, small, smallPath(c.id, int(st.Target)))
	case WriteLarge:
		err = c.write(ctx, a, CWriteLarge, large, largePath(c.id, int(st.Target)))
	case ColdSmall:
		stale, err = c.read(ctx, a, CColdSmall, small, coldSmallPath(c.id, c.coldS%l.ColdSmall))
		c.coldS++
	case ColdLarge:
		stale, err = c.read(ctx, a, CColdLarge, large, coldLargePath(c.id, c.coldL%l.ColdLarge))
		c.coldL++
	case WarmRead:
		stale, err = c.read(ctx, a, CWarmRead, small, hotPath(c.id, c.hot%l.Hot))
		c.hot++
	case CreateUnlink:
		path := scratchPath(c.id, c.scratch)
		c.scratch++
		if _, err = c.call(ctx, CCreate, func(ctx context.Context) error { return createEmpty(ctx, a, path) }); err == nil {
			_, err = c.call(ctx, CUnlink, func(ctx context.Context) error { return a.Unlink(ctx, path) })
		}
	case CreateRename:
		path, to := scratchPath(c.id, c.scratch), renamedPath(c.id, c.scratch)
		c.scratch++
		if _, err = c.call(ctx, CCreate, func(ctx context.Context) error { return createEmpty(ctx, a, path) }); err == nil {
			if _, err = c.call(ctx, CRename, func(ctx context.Context) error { return a.Rename(ctx, path, to) }); err == nil {
				_, err = c.call(ctx, CUnlink, func(ctx context.Context) error { return a.Unlink(ctx, to) })
			}
		}
	case Stat:
		path := nsPath(int(st.Target), l)
		_, err = c.call(ctx, CStat, func(ctx context.Context) error {
			fi, err := a.Stat(ctx, path)
			if err == nil && (fi.Path != path || fi.IsDir()) {
				stale = true
			}
			return err
		})
	case ReadDir:
		_, err = c.call(ctx, CReadDir, func(ctx context.Context) error {
			entries, err := a.ReadDir(ctx, nsDir(int(st.Target)))
			if err == nil && len(entries) != l.EntriesPerDir {
				stale = true
			}
			return err
		})
	case Share:
		path := sharePath(c.id, c.slot%l.ShareSlots)
		c.slot++
		reads := len(c.pass.Samples[CShareRead])
		stale, err = c.read(ctx, b, CShareRead, share, path)
		if err == nil && !stale {
			if err = c.write(ctx, a, CShareClose, share, path); err == nil {
				r := c.pass.Samples[CShareRead][reads]
				w := c.pass.Samples[CShareClose][len(c.pass.Samples[CShareClose])-1]
				c.sample(CShare, r+w)
			}
		}
	}
	t := &c.pass.Tallies[st.Kind]
	t.Attempted++
	switch {
	case err != nil:
		t.Errors++
		if c.pass.FirstError == "" {
			c.pass.FirstError = st.Kind.String() + ": " + err.Error()
		}
	case stale:
		t.Stale++
	}
	c.pass.Steps++
}

func (e *Env) recorder() *spans.Recorder {
	if e.taps == nil {
		return nil
	}
	return e.taps.rec
}

// Limit ends a replay: when Duration has passed, or after Rounds whole rounds
// when Rounds is not zero. Benchmark runs set only Duration; tests set Rounds
// so that two replays execute the same steps.
type Limit struct {
	Duration time.Duration
	Rounds   int
}

// WarmUp replays the last round of the script with the simulators' latency
// off, then collects garbage, so that the timed phase starts with the
// memory and disk caches full and the background work in its steady state.
func WarmUp(ctx context.Context, env *Env, script *Script, seed int64) error {
	env.clk.fast.Store(true)
	defer env.clk.fast.Store(env.fast)
	warm := &Script{}
	warm.Rounds[0] = script.Rounds[ScriptRounds-1]
	p := Replay(ctx, env, warm, seed, Limit{Duration: time.Hour, Rounds: 1})
	if _, failed := p.Attempted(); failed > 0 {
		return fmt.Errorf("warm-up: %d steps failed, first: %s", failed, p.FirstError)
	}
	env.Settle()
	if _, err := env.A.Collect(ctx); err != nil {
		return fmt.Errorf("warm-up: collect: %w", err)
	}
	return nil
}

// Replay runs the script on the deployment for the given time: rounds of a
// fixed number of steps per client, mount.Collect by client 0 between rounds
// with the clients parked, until the deadline cuts the last round short. The
// script wraps around if the run outlasts it.
func Replay(ctx context.Context, env *Env, script *Script, seed int64, limit Limit) *Pass {
	// The clients outlive a replay: the versions they wrote and their place
	// in each pool carry over from the warm-up to the timed replay.
	if env.clients == nil {
		for i := 0; i < Clients; i++ {
			env.clients = append(env.clients, newClient(i, env, seed))
		}
	}
	clients := env.clients
	start := time.Now()
	for _, c := range clients {
		c.pass, c.epoch = &Pass{}, start
	}
	usage0 := env.Usage()
	statsA0 := env.A.Stats()
	total := &Pass{}

	deadline := start.Add(limit.Duration)
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for _, st := range script.Rounds[round%ScriptRounds][c.id] {
					if !time.Now().Before(deadline) {
						return
					}
					c.step(ctx, st)
				}
			}(c)
		}
		wg.Wait()
		total.Rounds++
		if !time.Now().Before(deadline) || total.Rounds == limit.Rounds {
			break
		}
		env.Settle()
		t := time.Now()
		rep, err := env.A.Collect(ctx)
		total.CollectMs = append(total.CollectMs, float64(time.Since(t))/1e6)
		total.GCVersions += rep.VersionsDeleted
		if err != nil && total.FirstError == "" {
			total.FirstError = "collect: " + err.Error()
		}
	}
	total.Wall = time.Since(start)

	for _, c := range clients {
		total.Steps += c.pass.Steps
		total.Bytes += c.pass.Bytes
		total.Written += c.pass.Written
		total.Fetched += c.pass.Fetched
		for k := range total.Tallies {
			total.Tallies[k].Attempted += c.pass.Tallies[k].Attempted
			total.Tallies[k].Errors += c.pass.Tallies[k].Errors
			total.Tallies[k].Stale += c.pass.Tallies[k].Stale
		}
		for cl := range total.Samples {
			total.Samples[cl] = append(total.Samples[cl], c.pass.Samples[cl]...)
		}
		if total.FirstError == "" {
			total.FirstError = c.pass.FirstError
		}
	}
	for cl := range total.Samples {
		var at []float64
		for _, c := range clients {
			at = append(at, c.pass.at[cl]...)
		}
		total.P50[cl] = slicedMedian(total.Samples[cl], at, total.Wall.Seconds())
		sort.Float64s(total.Samples[cl])
	}
	for i, u := range env.Usage() {
		total.Usage = append(total.Usage, usageDelta(u, usage0[i]))
	}
	total.StatsA = statsDelta(env.A.Stats(), statsA0)
	return total
}

// slicedMedian cuts the replay into equal time slices, takes the median of
// the samples that completed in each, and returns the median of those. On a
// shared host the processor slows by a third for ten seconds at a time; a
// burst that covers less than half of the slices does not move this median,
// while it moves the median of all samples. Slices hold at least 30 samples,
// so a class with fewer than 90 samples is not cut at all.
func slicedMedian(ms, at []float64, wall float64) float64 {
	k := len(ms) / 30
	if k > 9 {
		k = 9
	}
	if k < 3 {
		return Median(ms)
	}
	slices := make([][]float64, k)
	for i, x := range ms {
		j := int(at[i] / wall * float64(k))
		if j >= k {
			j = k - 1
		}
		slices[j] = append(slices[j], x)
	}
	var medians []float64
	for _, s := range slices {
		if len(s) > 0 {
			medians = append(medians, Median(s))
		}
	}
	return Median(medians)
}

func usageDelta(a, b cloud.Usage) cloud.Usage {
	return cloud.Usage{
		PutRequests:    a.PutRequests - b.PutRequests,
		GetRequests:    a.GetRequests - b.GetRequests,
		DeleteRequests: a.DeleteRequests - b.DeleteRequests,
		ListRequests:   a.ListRequests - b.ListRequests,
		BytesIn:        a.BytesIn - b.BytesIn,
		BytesOut:       a.BytesOut - b.BytesOut,
		StoredBytes:    a.StoredBytes,
	}
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		CloudReads:      a.CloudReads - b.CloudReads,
		CloudWrites:     a.CloudWrites - b.CloudWrites,
		CoordAccesses:   a.CoordAccesses - b.CoordAccesses,
		MemCacheHits:    a.MemCacheHits - b.MemCacheHits,
		MemCacheMisses:  a.MemCacheMisses - b.MemCacheMisses,
		DiskCacheHits:   a.DiskCacheHits - b.DiskCacheHits,
		DiskCacheMisses: a.DiskCacheMisses - b.DiskCacheMisses,
	}
}
