package benchmarks

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
	"scfs/internal/coord"
	"scfs/internal/depspace"
	"scfs/internal/smr"
)

// The metadata-plane benchmarks: client pipelining against a replicated
// group, what an idle coalescer and a directory listing cost, and a
// many-session metadata storm against the replicated coordination group.
// All carry benchguard pair rules — see benchmarks/cmd/benchguard.

// noopApp is the cheapest possible replicated application, so the pipeline
// benchmark measures protocol round trips, not execution.
type noopApp struct{}

func (noopApp) Execute(cmd []byte) []byte { return cmd }
func (noopApp) Query(cmd []byte) []byte   { return cmd }
func (noopApp) Snapshot() []byte          { return nil }
func (noopApp) Restore([]byte) error      { return nil }

// benchGroup starts a four-replica Byzantine group (the paper's BFT-SMaRt
// configuration — both legs use the same n-f reply quorum) over a network
// with a small per-message delay, so round trips cost something to overlap.
func benchGroup(b *testing.B, app func() smr.Application, delay time.Duration) (*smr.Network, smr.Config, []*smr.Replica) {
	b.Helper()
	ids := []int{0, 1, 2, 3}
	cfg := smr.Config{ReplicaIDs: ids, Model: smr.ByzantineFaults}
	net := smr.NewNetwork()
	net.SetDelay(delay)
	reps := make([]*smr.Replica, 0, len(ids))
	for _, id := range ids {
		r, err := smr.NewReplica(id, cfg, app(), net)
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		b.Cleanup(r.Stop)
		reps = append(reps, r)
	}
	b.Cleanup(net.Close)
	return net, cfg, reps
}

// BenchmarkSMRPipeline drives 64 concurrent sessions through ONE smr client.
// The Serialized leg caps the in-flight window at 1 (the pre-pipelining
// behavior: every session queues behind one outstanding request); the
// Pipelined leg uses the default 64-slot window. Acceptance (benchguard):
// pipelined sustains >= 5x the serialized throughput, i.e. ns/op <= 0.2x.
func BenchmarkSMRPipeline(b *testing.B) {
	const sessions = 64
	for _, leg := range []struct {
		name   string
		window int
	}{
		{"Serialized", 1},
		{"Pipelined", smr.DefaultMaxInflight},
	} {
		b.Run(leg.name, func(b *testing.B) {
			net, cfg, _ := benchGroup(b, func() smr.Application { return noopApp{} }, 100*time.Microsecond)
			cli := smr.NewClient("bench", cfg, net)
			cli.MaxInflight = leg.window
			b.Cleanup(cli.Close)
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					op := []byte(fmt.Sprintf("session-%02d", s))
					for next.Add(1) <= int64(b.N) {
						if _, err := cli.Invoke(bg, op); err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
		})
	}
}

// BenchmarkCoalescerIdle is one session issuing operation after operation to
// a four-replica group with no network delay: the Direct leg through the
// smr.Client, the Coalesced leg through a Coalescer over it. Nothing ever
// queues behind the one invocation in flight, so the coalescer has nothing
// to pack and must not make the operation wait for company. Acceptance
// (benchguard): Coalesced costs at most 1.3x Direct's ns/op — two goroutine
// hand-offs, not a timer.
func BenchmarkCoalescerIdle(b *testing.B) {
	for _, leg := range []struct {
		name string
		wrap func(*smr.Client) smr.Invoker
	}{
		{"Direct", func(c *smr.Client) smr.Invoker { return c }},
		{"Coalesced", func(c *smr.Client) smr.Invoker { return smr.NewCoalescer(c) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			net, cfg, _ := benchGroup(b, func() smr.Application { return smr.NewBatchApplication(noopApp{}) }, 0)
			cli := smr.NewClient("idle", cfg, net)
			b.Cleanup(cli.Close)
			inv := leg.wrap(cli)
			op := smr.EncodeBatch([][]byte{[]byte("op")})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inv.Invoke(bg, op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDepSpaceList lists one directory of 12 through
// coord.DepSpaceService on an in-process tuple space that holds only that
// directory (Alone) or 400 tuples in 32 directories (Among400). The tuple
// space tests the listing's prefix before it copies anything, so what a
// listing allocates — the replicas' clones and reply, the client's decode —
// follows the directory, not the namespace. Acceptance (benchguard):
// Among400 allocates at most 1.5x Alone's B/op.
func BenchmarkDepSpaceList(b *testing.B) {
	for _, leg := range []struct {
		name   string
		tuples int
	}{
		{"Alone", 12},
		{"Among400", 400},
	} {
		b.Run(leg.name, func(b *testing.B) {
			svc := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "user", nil))
			for i := 0; i < leg.tuples; i++ {
				dir := 0 // the listed directory gets its 12 first
				if i >= 12 {
					dir = 1 + i%31
				}
				key := fmt.Sprintf("/d%02d/file%03d", dir, i)
				if _, err := svc.PutMetadata(bg, key, []byte(key), coord.ACL{Owner: "user"}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := svc.ListMetadata(bg, "/d00/")
				if err != nil || len(recs) != 12 {
					b.Fatalf("listed %d records, %v; want 12", len(recs), err)
				}
			}
		})
	}
}

// BenchmarkDepSpaceGet reads one record of 12 through coord.DepSpaceService
// on an in-process tuple space that holds only those 12 (Alone) or 4000
// tuples (Among4000), the 12 stored after the rest. A read names its tuple's
// tag and path, which the tuple space looks up in its key index, so it costs
// the same whatever the space holds; a scan in insertion order would walk
// 3988 tuples first. Acceptance (benchguard): Among4000 costs at most 1.5x
// Alone's ns/op.
func BenchmarkDepSpaceGet(b *testing.B) {
	for _, leg := range []struct {
		name   string
		tuples int
	}{
		{"Alone", 12},
		{"Among4000", 4000},
	} {
		b.Run(leg.name, func(b *testing.B) {
			svc := coord.NewDepSpaceService(depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, "user", nil))
			var keys []string
			for i := 0; i < leg.tuples; i++ {
				key := fmt.Sprintf("/d%02d/file%04d", i%32, i)
				if i >= leg.tuples-12 {
					key = fmt.Sprintf("/read/file%02d", leg.tuples-i)
					keys = append(keys, key)
				}
				if _, err := svc.PutMetadata(bg, key, []byte(key), coord.ACL{Owner: "user"}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys[i%len(keys)]
				if rec, err := svc.GetMetadata(bg, key); err != nil || string(rec.Value) != key {
					b.Fatalf("get %s = %q, %v", key, rec.Value, err)
				}
			}
		})
	}
}

// countingInvoker counts actual wire invocations below the coalescer: one
// count per ordered round trip to the replica group, however many tuple
// commands it carries. Each shard counts separately, so the benchmark can
// report both the plane-wide total and the load on the busiest instance.
type countingInvoker struct {
	inner *smr.Client
	n     *atomic.Int64
}

func (c *countingInvoker) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	c.n.Add(1)
	return c.inner.Invoke(ctx, op)
}

// InvokeWithStats keeps the counting shim transparent to the coalescer's
// stats path, so the instrumented storm leg exercises the full consensus
// span pipeline rather than the Invoke fallback.
func (c *countingInvoker) InvokeWithStats(ctx context.Context, op []byte, st *smr.InvokeStats) ([]byte, error) {
	c.n.Add(1)
	return c.inner.InvokeWithStats(ctx, op, st)
}

// stormPlane builds the coordination plane of the metadata storm: one
// BFT-replicated DepSpace group reached through a pipelined client with a
// coalescing layer. The returned counter holds the wire round trips to the
// group.
func stormPlane(b *testing.B) (coord.Service, *atomic.Int64, []*smr.Replica) {
	b.Helper()
	net, cfg, reps := benchGroup(b, func() smr.Application {
		return smr.NewBatchApplication(depspace.NewSpace())
	}, 50*time.Microsecond)
	cli := smr.NewClient("storm", cfg, net)
	b.Cleanup(cli.Close)
	rts := new(atomic.Int64)
	co := smr.NewCoalescer(&countingInvoker{inner: cli, n: rts})
	// The requester must be the mount's user ("user" by default): metadata
	// tuples are ACL'd to their owner, so a mismatched principal is denied.
	return coord.NewDepSpaceService(depspace.NewClient(co, "user", nil)), rts, reps
}

// stormMount mounts an scfs agent over zero-latency simulated clouds and the
// given coordination plane; extra options instrument the mount.
func stormMount(b *testing.B, svc coord.Service, opts ...scfs.Option) *scfs.FS {
	b.Helper()
	stores := make([]scfs.ObjectStore, 4)
	for i := range stores {
		p := cloudsim.NewProvider(cloudsim.Options{Name: fmt.Sprintf("c%d", i)})
		stores[i] = p.MustClient(p.CreateAccount("bench"))
	}
	m, err := scfs.New(bg, append([]scfs.Option{
		scfs.WithClouds(stores...),
		scfs.WithCoordination(svc),
		scfs.WithDiskCache(b.TempDir(), 0)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = m.Close(bg) })
	return m
}

// BenchmarkMetadataStorm drives hundreds of concurrent sessions (scaled by
// b.N up to 1024) through a mount whose coordination is the pipelined,
// replicated metadata plane. The blend is metadata-intensive, the regime
// where the paper measures coordination accesses dominating: ~81% stat,
// ~12% readdir, ~6% create. The custom metric coordRT/op counts wire round
// trips to the replica group per file-system operation; it is reported,
// not gated, because it tracks coalescer batch depth.
//
// The SingleTelemetry leg reruns the storm fully instrumented — metrics
// registry, per-operation tracing through smr spans, and the flight
// recorder retaining slow-tail exemplars. Acceptance (benchguard): always-on
// instrumentation costs at most 5% ns/op over the uninstrumented leg.
func BenchmarkMetadataStorm(b *testing.B) {
	const dirs = 16
	for _, leg := range []struct {
		name string
		opts []scfs.Option
	}{
		{"Single", nil},
		{"SingleTelemetry", []scfs.Option{scfs.WithMetrics(), scfs.WithTracing()}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			svc, rts, reps := stormPlane(b)
			m := stormMount(b, svc, leg.opts...)
			for d := 0; d < dirs; d++ {
				if err := m.Mkdir(bg, fmt.Sprintf("/d%02d", d)); err != nil {
					b.Fatal(err)
				}
				for f := 0; f < 4; f++ {
					path := fmt.Sprintf("/d%02d/seed%d.txt", d, f)
					if err := scfs.WriteFile(bg, m, path, []byte("seed")); err != nil {
						b.Fatal(err)
					}
				}
			}
			sessions := b.N
			if sessions > 1024 {
				sessions = 1024
			}
			var next atomic.Int64
			rts.Store(0)
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						dir := fmt.Sprintf("/d%02d", i%dirs)
						var err error
						switch {
						case i%16 == 0: // create
							err = scfs.WriteFile(bg, m, fmt.Sprintf("%s/s%d-%d.txt", dir, s, i), []byte("x"))
						case i%16 <= 2: // readdir
							_, err = m.ReadDir(bg, dir)
						default: // stat
							_, err = m.Stat(bg, fmt.Sprintf("%s/seed%d.txt", dir, i%4))
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			b.StopTimer()
			if b.Failed() {
				for _, r := range reps {
					view, exec := r.Progress()
					b.Logf("replica %d: view=%d lastExec=%d", r.ID(), view, exec)
				}
			}
			b.ReportMetric(float64(rts.Load())/float64(b.N), "coordRT/op")
		})
	}
}
