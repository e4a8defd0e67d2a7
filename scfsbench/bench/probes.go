package bench

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"scfs/internal/cache"
	"scfs/internal/cloud"
	"scfs/internal/cloudsim"
	"scfs/internal/depsky"
	"scfs/internal/depspace"
	"scfs/internal/erasure"
	"scfs/internal/fsmeta"
	"scfs/internal/seccrypto"
	"scfs/internal/secretshare"
)

// Probes are single-threaded direct calls into each processor-bound layer's
// public functions at the sizes the workloads use, so that a budget can be
// predicted from its parts. Each probe repeats its call for probeBudget and
// reports the median.

const probeBudget = 40 * time.Millisecond

// timeIt returns the median duration of f in seconds. A call shorter than
// the clock can time is timed in batches.
func timeIt(f func() error) (float64, error) {
	t := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	batch := 1
	if time.Since(t) < 20*time.Microsecond {
		batch = 100
	}
	var samples []float64
	for start := time.Now(); len(samples) < 3 || time.Since(start) < probeBudget; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(t).Seconds()/float64(batch))
	}
	sort.Float64s(samples)
	return Quantile(samples, 0.5), nil
}

const probeTuples = 1000

// prober runs probes until the first one fails.
type prober struct {
	out map[string]Metric
	err error
}

// mibS reports f's throughput over the given number of bytes.
func (p *prober) mibS(name string, bytes int, f func() error) {
	if p.err != nil {
		return
	}
	s, err := timeIt(f)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return
	}
	p.out[name] = Metric{Value: float64(bytes) / (1 << 20) / s, Unit: "MiB/s"}
}

// us reports f's duration in microseconds, divided by per.
func (p *prober) us(name string, per float64, f func() error) {
	if p.err != nil {
		return
	}
	s, err := timeIt(f)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return
	}
	p.out[name] = Metric{Value: s * 1e6 / per, Unit: "us"}
}

// Probes runs every probe. scratch holds the disk-cache probe's directory.
func Probes(ctx context.Context, seed int64, scratch string) (map[string]Metric, error) {
	p := &prober{out: make(map[string]Metric)}
	data := newPayloads(seed)
	chunk := data[large][:1<<20]

	// seccrypto at the streaming chunk size.
	key, err := seccrypto.NewKey()
	if err != nil {
		return nil, err
	}
	var sealed []byte
	p.mibS("probe.seccrypto.hash_mib_s", len(chunk), func() error { seccrypto.Hash(chunk); return nil })
	p.mibS("probe.seccrypto.encrypt_mib_s", len(chunk), func() (err error) {
		sealed, err = seccrypto.Encrypt(key, chunk)
		return err
	})
	p.mibS("probe.seccrypto.decrypt_mib_s", len(chunk), func() error {
		_, err := seccrypto.Decrypt(key, sealed)
		return err
	})

	// erasure with the cloud-of-clouds geometry (k = f+1 = 2, m = 2).
	coder, err := erasure.New(2, 2)
	if err != nil {
		return nil, err
	}
	var shards [][]byte
	p.mibS("probe.erasure.split_mib_s", len(chunk), func() (err error) {
		shards, err = coder.Split(chunk)
		return err
	})
	p.mibS("probe.erasure.reconstruct_mib_s", len(chunk), func() error {
		// Lose both data shards: the worst case a read can meet.
		return coder.Reconstruct([][]byte{nil, nil, shards[2], shards[3]})
	})

	// secretshare on one AES key, 2-of-4.
	var shares []secretshare.Share
	p.us("probe.secretshare.split_us", 1, func() (err error) {
		shares, err = secretshare.Split(key, 4, 2, nil)
		return err
	})
	p.us("probe.secretshare.combine_us", 1, func() error {
		_, err := secretshare.Combine(shares[:2], 2)
		return err
	})

	// fsmeta on a file record with one version, the common case.
	md := fsmeta.NewFile("/ns/d00/e00", User, "f-0123456789ab", time.Now())
	md.AddVersion(seccrypto.Hash(chunk[:SmallSize]), SmallSize, time.Now())
	var raw []byte
	p.us("probe.fsmeta.encode_us", 1, func() (err error) {
		raw, err = md.Encode()
		return err
	})
	p.us("probe.fsmeta.decode_us", 1, func() error {
		_, err := fsmeta.Decode(raw)
		return err
	})

	// The disk cache at the large file size.
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := cache.NewDisk(dir, 4*LargeSize)
	if err != nil {
		return nil, err
	}
	p.mibS("probe.cache.disk_put_mib_s", LargeSize, func() error { return disk.Put("probe@v", data[large]) })
	p.mibS("probe.cache.disk_get_mib_s", LargeSize, func() error {
		if _, ok := disk.Get("probe@v"); !ok {
			return fmt.Errorf("entry missing")
		}
		return nil
	})

	// A local tuple space holding about as many metadata-sized tuples as the
	// workloads' namespace.
	space := depspace.NewClient(&depspace.LocalInvoker{Space: depspace.NewSpace()}, User, nil)
	for i := 0; i < probeTuples && p.err == nil; i++ {
		t := depspace.Tuple{"meta", fmt.Sprintf("/ns/d%02d/e%03d", i%32, i), string(raw)}
		_, p.err = space.Out(ctx, t, depspace.ACL{Owner: User})
	}
	p.us("probe.depspace.get_us", 1, func() error {
		_, err := space.Rdp(ctx, depspace.Tuple{"meta", "/ns/d07/e487", depspace.Wildcard})
		return err
	})
	p.us("probe.depspace.list_us_per_ktuple", probeTuples/1000.0, func() error {
		_, err := space.RdAll(ctx, depspace.Tuple{"meta", depspace.Wildcard, depspace.Wildcard})
		return err
	})

	// DepSky on instant clouds at the small file size.
	var clouds []cloud.ObjectStore
	for _, kind := range cloudsim.CoCKinds() {
		prov := cloudsim.NewProvider(cloudsim.Options{Name: string(kind)})
		clouds = append(clouds, prov.MustClient(prov.CreateAccount(User)))
	}
	mgr, err := depsky.New(depsky.Options{Clouds: clouds, F: 1})
	if err != nil {
		return nil, err
	}
	p.us("probe.depsky.write_us.16k", 1, func() error {
		_, err := mgr.Write(ctx, "probe-unit", data[small])
		return err
	})
	p.us("probe.depsky.read_us.16k", 1, func() error {
		_, _, err := mgr.Read(ctx, "probe-unit")
		return err
	})
	return p.out, p.err
}
