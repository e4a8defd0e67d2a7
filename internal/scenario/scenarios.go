package scenario

// The named scenarios. Each scripts one failure pattern the paper's design
// claims to survive and asserts what "survive" means for it. They share the
// standard deployment of newEnv: four simulated clouds, f=1, streaming
// above 8 KiB so large reads and writes actually fan out to the clouds
// instead of being absorbed by the local cache.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scfs"
	"scfs/internal/cloudsim"
	"scfs/internal/depspace"
)

// payload builds deterministic, seed-tagged file contents.
func payload(seed byte, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed + byte(i%97)
	}
	return data
}

// mustWrite / mustRead are the availability assertions: under every
// scenario's faults, client operations must keep succeeding. ctx carries
// the operation's I/O policy, if any (scfs.WithPolicy).
func mustWrite(ctx context.Context, t *testing.T, env *Env, path string, data []byte) {
	t.Helper()
	if err := scfs.WriteFile(ctx, env.FS, path, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func mustRead(ctx context.Context, t *testing.T, env *Env, path string, want []byte) {
	t.Helper()
	got, err := scfs.ReadFile(ctx, env.FS, path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %s: got %d bytes, want %d (content mismatch)", path, len(got), len(want))
	}
}

// All returns the chaos scenarios, each runnable with Run.
func All() []Scenario {
	return []Scenario{
		providerOutageMidWrite(),
		grayFailureSequentialScan(),
		fCorruptingClouds(),
		flappingProvider(),
		breakerRecovery(),
		leaderCrashMetadataStorm(),
	}
}

// providerOutageMidWrite: a cloud accepts the first requests of a chunked
// upload and then goes dark between chunks. The write must complete on the
// surviving quorum, the read-back must match, and the outage must not leave
// a torn half-version behind (exactly one stored version per file).
func providerOutageMidWrite() Scenario {
	const chunk = 1 << 20
	return Scenario{
		Name: "provider-outage-mid-write",
		Description: "one cloud dies between chunks of a streamed upload; " +
			"the write completes on the quorum and no partial version exists",
		Run: func(t *testing.T, env *Env) {
			warm := payload(0x10, 2*chunk+300)
			mustWrite(bg, t, env, "/warm.bin", warm)

			// c0 serves two more requests of the upload, then everything
			// it is asked fails: an outage striking mid-write.
			env.Providers[0].SetFaults(cloudsim.FaultSpec{
				Mode: cloudsim.FaultUnavailable, AfterN: 2,
			})
			mid := payload(0x33, 3*chunk+11)
			mustWrite(bg, t, env, "/mid.bin", mid)
			mustRead(bg, t, env, "/mid.bin", mid)
			// Files written before the outage stay readable through it.
			mustRead(bg, t, env, "/warm.bin", warm)

			// The outage heals; the version written during it is still the
			// one read afterwards.
			env.Providers[0].ClearFaults()
			mustRead(bg, t, env, "/mid.bin", mid)

			// No torn versions: two files, one complete version each. A
			// retry loop that re-uploaded chunks into fresh versions (or a
			// failed fan-out that committed metadata anyway) shows up here.
			report, err := env.FS.CostReport(bg)
			if err != nil {
				t.Fatal(err)
			}
			if report.Files != 2 || report.Versions != 2 {
				t.Fatalf("stored %d versions across %d files, want exactly 2/2",
					report.Versions, report.Files)
			}
		},
	}
}

// grayFailureSequentialScan: a provider turns gray — no errors, just a
// ~500x latency inflation — during a sequential scan. Hedged, readahead
// reads must route around it: the scan returns correct bytes in a small
// fraction of the time a scan serialized behind the gray cloud would take.
func grayFailureSequentialScan() Scenario {
	const chunk = 1 << 20
	rtt := 2 * time.Millisecond
	return Scenario{
		Name: "gray-failure-sequential-scan",
		Description: "a cloud inflates read latency 500x without erroring; " +
			"a hedged sequential scan completes near healthy speed",
		RTTs: []time.Duration{rtt, rtt, rtt, rtt},
		Run: func(t *testing.T, env *Env) {
			data := payload(0x5E, 3*chunk+77)
			mustWrite(bg, t, env, "/scan.bin", data)

			// c1 goes gray for reads: struck requests take ~1s each.
			env.Providers[1].SetFaults(cloudsim.FaultSpec{
				Mode: cloudsim.FaultSlow, Ops: cloudsim.MaskReads, LatencyFactor: 500,
			})

			var sink bytes.Buffer
			start := time.Now()
			scan := scfs.WithPolicy(bg, scfs.WithHedge(0.9), scfs.WithReadahead(2))
			n, err := scfs.ReadFileTo(scan, env.FS, "/scan.bin", &sink)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("scan under gray failure: %v", err)
			}
			if n != int64(len(data)) || !bytes.Equal(sink.Bytes(), data) {
				t.Fatalf("scan returned %d/%d correct bytes", n, len(data))
			}
			// Serialized behind the gray cloud the scan would take >= 3s
			// (three chunk fetches at ~1s each). Hedging must keep it far
			// below that.
			if elapsed > 1500*time.Millisecond {
				t.Fatalf("gray cloud dominated the scan: %v elapsed", elapsed)
			}
		},
	}
}

// fCorruptingClouds: f clouds return silently corrupted payloads on every
// read. The integrity layer must discard their answers and serve correct
// data from the rest, for files read by ranges (larger than a mount holds
// whole) and small inline ones alike.
func fCorruptingClouds() Scenario {
	return Scenario{
		Name: "f-corrupting-clouds",
		Description: "f=1 cloud corrupts every read; integrity checks " +
			"discard it and reads stay correct",
		Run: func(t *testing.T, env *Env) {
			big := payload(0x71, 1<<20+64<<10)
			small := payload(0x72, 512)
			mustWrite(bg, t, env, "/doc.bin", big)
			mustWrite(bg, t, env, "/note.txt", small)

			env.Providers[3].SetFaults(cloudsim.FaultSpec{
				Mode: cloudsim.FaultCorrupt, Ops: cloudsim.MaskGet,
			})
			mustRead(bg, t, env, "/doc.bin", big)
			mustRead(bg, t, env, "/note.txt", small)

			// Writing through a corrupting cloud works too, and what was
			// written reads back intact while the corruption continues.
			during := payload(0x73, 32<<10)
			mustWrite(bg, t, env, "/during.bin", during)
			mustRead(bg, t, env, "/during.bin", during)
		},
	}
}

// flappingProvider: one cloud fails roughly half its requests at random,
// indefinitely. A retry-budgeted workload must see every operation succeed,
// and the flapping cloud's request count must stay inside the budget (the
// dollar bound: retries may at most multiply that cloud's traffic by the
// attempt budget, never run away).
func flappingProvider() Scenario {
	const rounds = 15
	return Scenario{
		Name: "flapping-provider",
		Description: "one cloud fails ~45% of requests; a retry-budgeted " +
			"workload fully succeeds with per-cloud traffic inside budget",
		Long: true, // probabilistic and iteration-heavy: full runs only
		Run: func(t *testing.T, env *Env) {
			if err := env.FS.Mkdir(bg, "/flap"); err != nil {
				t.Fatal(err)
			}
			env.Providers[2].SetFaults(cloudsim.FaultSpec{
				Mode: cloudsim.FaultUnavailable, Probability: 0.45,
			})
			retry := scfs.WithPolicy(bg, scfs.WithRetry(3, time.Millisecond))
			before := env.Requests()
			files := make(map[string][]byte, rounds)
			for i := 0; i < rounds; i++ {
				path := fmt.Sprintf("/flap/f%02d.bin", i)
				data := payload(byte(i), 12<<10)
				files[path] = data
				mustWrite(retry, t, env, path, data)
				mustRead(retry, t, env, path, data)
			}
			// Everything remains readable after the storm.
			env.Providers[2].ClearFaults()
			for path, data := range files {
				mustRead(bg, t, env, path, data)
			}
			// Budget bound: the flapping cloud saw at most MaxAttempts times
			// the traffic of the busiest healthy cloud (plus slack for the
			// final verification pass).
			delta := env.Requests()
			var maxHealthy int64
			for i := range delta {
				d := delta[i] - before[i]
				if i != 2 && d > maxHealthy {
					maxHealthy = d
				}
			}
			if flapped := delta[2] - before[2]; flapped > 3*maxHealthy+10 {
				t.Fatalf("flapping cloud served %d requests, healthy max %d: retry budget not honored",
					flapped, maxHealthy)
			}
		},
	}
}

// leaderCrashMetadataStorm: the mount's coordination runs on one BFT-
// replicated DepSpace group; mid-storm, its leader replica crashes. The
// surviving 3-of-4 quorum must view-change and keep serving — every
// session's metadata ops succeed, the listings stay complete, and tearing
// the group down leaks nothing.
func leaderCrashMetadataStorm() Scenario {
	const (
		dirs     = 8
		sessions = 16
		ops      = 24 // per session
	)
	return Scenario{
		Name: "leader-crash-metadata-storm",
		Description: "the coordination group loses its leader replica mid-storm; " +
			"the quorum view-changes and every session's ops still succeed",
		// The storm runs traced: the flight recorder must retain the
		// outage's evidence (view-change-crossing ops) as exemplars even
		// though hundreds of healthy ops finish afterwards.
		Mount: []scfs.Option{scfs.WithTracing()},
		Coord: func(t *testing.T) *depspace.Group {
			g, err := depspace.NewGroup("chaos-coord")
			if err != nil {
				t.Fatal(err)
			}
			g.Net.SetDelay(50 * time.Microsecond)
			return g
		},
		Run: func(t *testing.T, env *Env) {
			for d := 0; d < dirs; d++ {
				if err := env.FS.Mkdir(bg, fmt.Sprintf("/d%d", d)); err != nil {
					t.Fatal(err)
				}
				mustWrite(bg, t, env, fmt.Sprintf("/d%d/seed.bin", d), payload(byte(d), 600))
			}
			// The seeding went through the group, or crashing its leader
			// would prove nothing about the metadata path.
			if _, seeded := env.Replicas[0].Progress(); seeded == 0 {
				t.Fatal("the coordination group executed nothing during seeding")
			}

			// The storm: sessions hammer stat/readdir/create across every
			// directory. Once half the ops are in, the group's current leader
			// (replica 0, view 0) crashes; the remaining replicas must
			// suspect it, view-change, and resume — no client ever errors.
			var done atomic.Int64
			var crashOnce sync.Once
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if done.Add(1) == sessions*ops/2 {
							crashOnce.Do(func() { env.Replicas[0].Stop() })
						}
						dir := fmt.Sprintf("/d%d", (s+i)%dirs)
						var err error
						switch {
						case i%8 == 0:
							err = scfs.WriteFile(bg, env.FS,
								fmt.Sprintf("%s/s%d-%d.bin", dir, s, i), payload(byte(s), 600))
						case i%8 == 1:
							_, err = env.FS.ReadDir(bg, dir)
						default:
							_, err = env.FS.Stat(bg, dir+"/seed.bin")
						}
						if err != nil {
							t.Errorf("session %d op %d (%s): %v", s, i, dir, err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			if t.Failed() {
				for _, r := range env.Replicas {
					view, exec := r.Progress()
					t.Logf("replica %d: view=%d lastExec=%d", r.ID(), view, exec)
				}
				return
			}

			// The group made progress after losing its leader, under a new
			// view: the outage was survived, not waited out.
			if view, _ := env.Replicas[1].Progress(); view == 0 {
				t.Fatalf("the group never view-changed after its leader crashed (view=%d)", view)
			}

			// The flight recorder holds the outage's evidence: operations
			// whose smr invocations were in flight across the view change are
			// flagged and retained as exemplars — still quotable here, after
			// hundreds of healthy post-crash ops finished.
			// (This replaces counting executions on the survivors: a retained
			// view-change trace proves ops crossed the outage *and* completed.)
			fr := env.FS.FlightRecorder()
			var vcTrace, retransmitted *scfs.Trace
			for _, class := range fr.Classes() {
				for _, tr := range fr.Flagged(class) {
					if !tr.CrossedViewChange() {
						continue
					}
					for _, sp := range tr.Spans() {
						if sp.Name != "smr.invoke" || !sp.ViewChange {
							continue
						}
						vcTrace = tr
						if sp.Retries > 0 {
							retransmitted = tr
						}
					}
				}
			}
			if vcTrace == nil {
				t.Fatalf("flight recorder retained no view-change-crossing trace; stats: %+v", fr.Stats())
			}
			if retransmitted == nil {
				t.Fatalf("no retained exemplar shows the outage's retransmissions: %v", vcTrace.Describe())
			}

			// Consistency after the storm: the root lists every directory, and
			// each directory holds its seed plus the three files every session
			// created in it.
			root, err := env.FS.ReadDir(bg, "/")
			if err != nil {
				t.Fatal(err)
			}
			if len(root) != dirs {
				t.Fatalf("root lists %d entries after the storm, want %d", len(root), dirs)
			}
			for d := 0; d < dirs; d++ {
				ents, err := env.FS.ReadDir(bg, fmt.Sprintf("/d%d", d))
				if err != nil {
					t.Fatal(err)
				}
				want := 1 + sessions*ops/8/dirs
				if len(ents) != want {
					t.Fatalf("/d%d lists %d entries, want %d", d, len(ents), want)
				}
			}
		},
	}
}

// breakerRecovery: a provider goes down long enough to trip its breakers,
// a fail-fast workload then runs without contacting it at all, and after
// the outage ends the cooldown's probe readmits it — traffic resumes
// against the healed cloud without any operator intervention.
func breakerRecovery() Scenario {
	return Scenario{
		Name: "breaker-recovery",
		Description: "an outage trips the breakers, fail-fast ops skip the " +
			"dead cloud entirely, and the post-cooldown probe readmits it",
		Mount: []scfs.Option{
			scfs.WithBreakerPolicy(scfs.BreakerPolicy{
				FailureThreshold: 2,
				// Long enough that both breakers stay open through the
				// fail-fast phase even on a loaded machine.
				Cooldown: time.Second,
			}),
			// Caches too small for the 12 KiB files: every read is a cloud
			// read, since a write issues PUTs only and a cached read nothing,
			// and the GET breaker trips only on GETs.
			scfs.WithMemoryCache(4 << 10),
			scfs.WithDiskCache("", 4<<10),
		},
		Run: func(t *testing.T, env *Env) {
			failFast := scfs.WithPolicy(bg, scfs.WithBreaker(scfs.BreakerFailFast))
			steady := payload(0x2B, 12<<10)
			mustWrite(bg, t, env, "/steady.bin", steady)

			// Outage: every request to c0 fails. Full-fan-out writes and
			// reads keep succeeding on the quorum while the failures trip
			// c0's GET and PUT breakers — telemetry, not inference, says
			// when both have. A round's goroutine for c0 may still be
			// running after its operation returned, so each check first
			// waits for c0's in-flight count to drain: only then is every
			// failure on the scoreboard, and no straggler of the outage can
			// reach c0 later and be blamed on the fail-fast phase.
			env.Providers[0].SetFault(cloudsim.FaultUnavailable)
			tripped := func() bool {
				tel := waitRPCsDrained(t, env, "c0")
				return tel.Counter(`breaker_open_total{cloud="c0",op="get"}`) > 0 &&
					tel.Counter(`breaker_open_total{cloud="c0",op="put"}`) > 0
			}
			deadline := time.Now().Add(10 * time.Second)
			for i := 0; !tripped(); i++ {
				if time.Now().After(deadline) {
					t.Fatal("outage did not trip both of c0's breakers")
				}
				data := payload(byte(i), 12<<10)
				path := fmt.Sprintf("/outage%d.bin", i)
				mustWrite(bg, t, env, path, data)
				mustRead(bg, t, env, path, data)
			}

			// Breakers open: fail-fast operations must not touch c0 at all —
			// neither at the provider nor in the RPC counters (the skips land
			// on their own counter instead).
			before := env.Providers[0].TotalRequests()
			beforeTel := env.FS.Stats().Telemetry
			for i := 0; i < 4; i++ {
				data := payload(byte(0x40+i), 12<<10)
				path := fmt.Sprintf("/open%d.bin", i)
				mustWrite(failFast, t, env, path, data)
				mustRead(failFast, t, env, path, data)
			}
			afterTel := env.FS.Stats().Telemetry
			if extra := env.Providers[0].TotalRequests() - before; extra != 0 {
				t.Fatalf("fail-fast ops sent %d requests to a cloud with open breakers", extra)
			}
			const c0RPCs = `rpc_total{cloud="c0"`
			if d := counterSum(afterTel, c0RPCs) - counterSum(beforeTel, c0RPCs); d != 0 {
				t.Fatalf("fail-fast phase recorded %d RPC attempts against c0", d)
			}
			const c0Skips = `rpc_breaker_skipped_total{cloud="c0"`
			if d := counterSum(afterTel, c0Skips) - counterSum(beforeTel, c0Skips); d == 0 {
				t.Fatal("fail-fast phase recorded no breaker skips for c0")
			}

			// Recovery: the outage ends and fail-fast traffic keeps flowing.
			// Poll against a deadline instead of guessing a settle time —
			// once the cooldown elapses, some operation's probe readmits c0:
			// a successful probe moves a c0 breaker back to closed with no
			// change in client behaviour.
			env.Providers[0].SetFault(cloudsim.FaultNone)
			before = env.Providers[0].TotalRequests()
			const c0Recovered = `breaker_recovered_total{cloud="c0"`
			deadline = time.Now().Add(10 * time.Second)
			for i := 0; counterSum(env.FS.Stats().Telemetry, c0Recovered) == 0; i++ {
				if time.Now().After(deadline) {
					t.Fatal("healed cloud never readmitted: breaker probe did not close it")
				}
				data := payload(byte(0x60+i%32), 12<<10)
				path := fmt.Sprintf("/healed%d.bin", i)
				mustWrite(failFast, t, env, path, data)
				mustRead(failFast, t, env, path, data)
				time.Sleep(20 * time.Millisecond)
			}
			// The recorded readmission is real traffic: the probe that
			// closed the breaker reached the healed provider.
			if env.Providers[0].TotalRequests() == before {
				t.Fatal("a c0 breaker recovered without a request reaching c0")
			}
			// And the pre-outage file is still intact.
			mustRead(bg, t, env, "/steady.bin", steady)
		},
	}
}
