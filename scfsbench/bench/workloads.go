// Package bench is the scfs-bench harness: a checked-in table of workloads,
// a seeded script generator, an assembler for the simulated deployment each
// workload runs on, two closed-loop clients that replay the script through
// the public scfs facade and verify every byte they read, and a traced pass
// that replays it with recording wrappers at the layer boundaries.
package bench

import "fmt"

// Clients is the number of closed-loop client goroutines. It is fixed, not
// derived from the machine, so numbers compare across machines; the
// reference box has two processors.
const Clients = 2

// File sizes the scripts use. Large is above the agent's 1 MiB streaming
// threshold, so large writes take the chunked upload path and large cold
// reads the ranged one.
const (
	SmallSize = 16 << 10
	LargeSize = 4 << 20
	ShareSize = 256 << 10
)

// Kind is one class of script operation.
type Kind uint8

// The operation classes. A share operation reads, on the second agent, the
// version the first agent wrote at its previous visit to the slot, then
// writes the next version on the first agent.
const (
	WriteSmall Kind = iota
	WriteLarge
	ColdSmall
	ColdLarge
	WarmRead
	CreateUnlink
	CreateRename
	Stat
	ReadDir
	Share
	numKinds
)

var kindNames = [numKinds]string{
	"write_small", "write_large", "cold_small", "cold_large", "warm_read",
	"create_unlink", "create_rename", "stat", "readdir", "share",
}

func (k Kind) String() string { return kindNames[k] }

// Regime is the simulated deployment a workload runs on.
type Regime uint8

const (
	// WAN: four clouds built from cloudsim.DefaultProfiles at LatencyScale
	// 0.1 (RTT 5.5–9 ms, 30–60 MiB/s, ±15 % jitter, consistency windows
	// kept), a local DepSpace behind coord.WithLatency(DefaultCoCLatency,
	// Scale 0.1). Nearly all of an operation is simulated waiting.
	WAN Regime = iota
	// Near: the same deployment at LatencyScale 0.02 (RTT 1.1–1.8 ms,
	// coordination 1.4–2 ms), with the disk cache off. Small operations are
	// still mostly waiting; large transfers and listings are about half the
	// program's own processor time.
	Near
	// BFT: clouds as in Near; coordination is one group of four in-process
	// smr replicas (ByzantineFaults, network delay 0) running
	// BatchApplication(depspace.NewSpace()) behind smr.Client and
	// smr.Coalescer, assembled as replicatedCoordShard in options.go does.
	// With instant delivery between replicas, coordination latency is
	// processor and scheduling time only.
	BFT
)

// LatencyScale is the cloudsim (and, without replicas, coordination) latency
// scale of a regime. At 1, the paper's magnitudes, a run of tens of seconds
// completes too few operations for a median of every class. At 0, with
// instant clouds, a small operation takes tens of microseconds of
// pointer-chasing, and on the shared reference box such code runs a third
// slower for minutes at a time: no bound under a quarter holds there.
func (r Regime) LatencyScale() float64 {
	if r == WAN {
		return 0.1
	}
	return 0.02
}

// Layout sizes the namespace a workload runs over. Pools are per client:
// each client owns the files it writes, so two writers never race on a path.
type Layout struct {
	Dirs          int // directories stat and readdir walk
	EntriesPerDir int // empty files in each
	SmallTargets  int // 16 KiB files a client overwrites
	LargeTargets  int // 4 MiB files a client overwrites
	ColdSmall     int // 16 KiB files read round-robin, never rewritten
	ColdLarge     int // 4 MiB files read round-robin, never rewritten
	Hot           int // 16 KiB files read once in set-up and often after
	ShareSlots    int // 256 KiB files written on agent A, read on agent B
}

// Cache sizes of every mount. The cold pools total more than twice their
// sum, and a file is re-read only after the rest of its pool, so a cold read
// never finds its bytes cached; the hot set is small enough to be re-read
// before the large writes push it out.
const (
	MemCacheBytes  = 32 << 20
	DiskCacheBytes = 32 << 20
)

var defaultLayout = Layout{
	Dirs: 16, EntriesPerDir: 12,
	SmallTargets: 32, LargeTargets: 4,
	ColdSmall: 32, ColdLarge: 16,
	Hot: 2, ShareSlots: 4,
}

// Workload is one row of the benchmark table.
type Workload struct {
	Name   string
	Why    string
	Regime Regime
	// Mix is how many operations of each kind one deck holds. A script is a
	// sequence of shuffled decks, so any stretch of it has the same mix.
	Mix [numKinds]int
	// DecksPerRound sets the round length. Between rounds the clients park
	// and client 0 runs mount.Collect, so tombstones and old versions do not
	// accumulate and garbage-collection time is inside the wall clock.
	DecksPerRound int
	Layout        Layout
}

// diskCacheBytes is the capacity of each mount's disk cache. Only the WAN
// regime has one (one byte holds nothing): on the reference box a put into it
// costs 0.1 to 0.3 ms of file-system work that grows from run to run with the
// state of the checkout's disk, which is under 1 % of a WAN operation and up
// to a tenth of a small one in the other regimes.
func (w Workload) diskCacheBytes() int64 {
	if w.Regime == WAN {
		return DiskCacheBytes
	}
	return 1
}

// OpsPerRound is the number of script operations one client runs in a round.
func (w Workload) OpsPerRound() int {
	n := 0
	for _, c := range w.Mix {
		n += c
	}
	return n * w.DecksPerRound
}

var filesMix = [numKinds]int{
	WriteSmall: 12, WriteLarge: 4, ColdSmall: 8, ColdLarge: 4, WarmRead: 14,
	CreateUnlink: 8, CreateRename: 2, Stat: 36, ReadDir: 8, Share: 4,
}

// Workloads is the checked-in table. Names are fixed: BENCHMARK.json and
// every later comparison refer to them.
var Workloads = []Workload{
	{
		Name:   "files-wan",
		Why:    "the paper's regime: nearly all of a small operation is simulated waiting, so only the number and overlap of round trips shows",
		Regime: WAN, Mix: filesMix, DecksPerRound: 2, Layout: defaultLayout,
	},
	{
		Name:   "files-cpu",
		Why:    "same script at a fifth of the latency: large transfers and listings are about half the program's own hashing, encoding, copying and JSON",
		Regime: Near, Mix: filesMix, DecksPerRound: 4, Layout: defaultLayout,
	},
	{
		Name:   "meta-bft",
		Why:    "metadata-heavy mix with coordination through four smr replicas: puts coord, depspace and smr on the critical path",
		Regime: BFT,
		Mix: [numKinds]int{
			WriteSmall: 4, WriteLarge: 2, ColdSmall: 4, ColdLarge: 2, WarmRead: 4,
			CreateUnlink: 12, CreateRename: 8, Stat: 48, ReadDir: 12, Share: 4,
		},
		DecksPerRound: 4, Layout: defaultLayout,
	},
	{
		Name:   "share-wan",
		Why:    "sharing-heavy mix on the WAN regime: one agent writes, a second agent reads it back, so metadata is fetched and never self-cached",
		Regime: WAN,
		Mix: [numKinds]int{
			WriteSmall: 10, WriteLarge: 3, ColdSmall: 6, ColdLarge: 3, WarmRead: 10,
			CreateUnlink: 6, CreateRename: 2, Stat: 28, ReadDir: 6, Share: 26,
		},
		DecksPerRound: 2, Layout: defaultLayout,
	},
}

// Find returns the workload with the given name.
func Find(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
