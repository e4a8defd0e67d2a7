package scfs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/fstest"

	"scfs"
	"scfs/internal/cloudsim"
)

var bg = context.Background()

// newSimClient builds one zero-latency simulated cloud client.
func newSimClient(t *testing.T) scfs.ObjectStore {
	t.Helper()
	p := cloudsim.NewProvider(cloudsim.Options{Name: "solo"})
	return p.MustClient(p.CreateAccount("user"))
}

// mount creates a fully simulated blocking-mode mount and registers its
// teardown.
func mount(t *testing.T, opts ...scfs.Option) *scfs.FS {
	t.Helper()
	m, err := scfs.New(bg, append([]scfs.Option{scfs.WithDiskCache(t.TempDir(), 0)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(bg) })
	return m
}

func TestFacadeRoundTrip(t *testing.T) {
	m := mount(t)
	if err := m.Mkdir(bg, "/docs"); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello from the cloud-of-clouds")
	if err := scfs.WriteFile(bg, m, "/docs/hello.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := scfs.ReadFile(bg, m, "/docs/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	infos, err := m.ReadDir(bg, "/docs")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "hello.txt" {
		t.Fatalf("ReadDir = %+v", infos)
	}
}

// TestFacadeErrorsMatchStdlib pins the acceptance criterion that facade
// users only need the standard library to classify errors.
func TestFacadeErrorsMatchStdlib(t *testing.T) {
	m := mount(t)
	_, err := scfs.ReadFile(bg, m, "/no/such/file")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file err = %v, want errors.Is(err, fs.ErrNotExist)", err)
	}
	if !errors.Is(err, scfs.ErrNotExist) {
		t.Fatalf("missing file err = %v, want errors.Is(err, scfs.ErrNotExist)", err)
	}
	if err := scfs.WriteFile(bg, m, "/f", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(bg, "/f", scfs.ReadWrite|scfs.Create|scfs.Exclusive); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("exclusive create err = %v, want fs.ErrExist", err)
	}
}

// TestIOFSPassesFstest runs the standard library's file-system conformance
// suite against a cloudsim-backed mount through the io/fs adapter — the
// acceptance criterion of the io/fs interop work.
func TestIOFSPassesFstest(t *testing.T) {
	m := mount(t)
	want := map[string][]byte{
		"hello.txt":          []byte("hello"),
		"docs/report.txt":    bytes.Repeat([]byte("report "), 1000),
		"docs/sub/deep.bin":  {0x00, 0x01, 0x02, 0xFF},
		"pics/logo.png":      bytes.Repeat([]byte{0x89, 0x50}, 300),
		"empty-but-real.txt": nil,
	}
	for _, dir := range []string{"/docs", "/docs/sub", "/pics"} {
		if err := m.Mkdir(bg, dir); err != nil {
			t.Fatal(err)
		}
	}
	expected := make([]string, 0, len(want))
	for name, data := range want {
		if err := scfs.WriteFile(bg, m, "/"+name, data); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, name)
	}
	if err := fstest.TestFS(m.IOFS(bg), expected...); err != nil {
		t.Fatal(err)
	}
}

// TestIOFSWalkDir exercises fs.WalkDir over a mount, the canonical
// ecosystem integration.
func TestIOFSWalkDir(t *testing.T) {
	m := mount(t)
	if err := m.Mkdir(bg, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir(bg, "/a/b"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/x.txt", "/a/b/y.txt", "/z.txt"} {
		if err := scfs.WriteFile(bg, m, p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := fs.WalkDir(m.IOFS(bg), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		visited = append(visited, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{".", "a", "a/b", "a/b/y.txt", "a/x.txt", "z.txt"}
	if len(visited) != len(wantOrder) {
		t.Fatalf("visited %v, want %v", visited, wantOrder)
	}
	for i := range wantOrder {
		if visited[i] != wantOrder[i] {
			t.Fatalf("visited %v, want %v", visited, wantOrder)
		}
	}
}

// TestIOFSServesHTTP serves a mount through http.FileServer: the adapter's
// Seek/ReadAt support is what makes range requests and content sniffing
// work.
func TestIOFSServesHTTP(t *testing.T) {
	m := mount(t)
	body := bytes.Repeat([]byte("0123456789"), 500)
	if err := scfs.WriteFile(bg, m, "/data.txt", body); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.FS(m.IOFS(bg))))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/data.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("full GET: %v, %d bytes", err, len(got))
	}

	req, _ := http.NewRequest("GET", srv.URL+"/data.txt", nil)
	req.Header.Set("Range", "bytes=100-199")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(got, body[100:200]) {
		t.Fatalf("range GET: status %d, %d bytes", resp.StatusCode, len(got))
	}
}

// TestIOFSContextCancellation: the adapter's captured context bounds its
// operations.
func TestIOFSContextCancellation(t *testing.T) {
	m := mount(t)
	if err := scfs.WriteFile(bg, m, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	fsys := m.IOFS(ctx)
	cancel()
	if _, err := fsys.Open("f"); !errors.Is(err, context.Canceled) {
		t.Fatalf("open under cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestNonBlockingMode exercises the facade over the asynchronous mode:
// close queues the upload, WaitForUploads drains it.
func TestNonBlockingMode(t *testing.T) {
	m := mount(t, scfs.WithMode(scfs.NonBlocking))
	if err := scfs.WriteFile(bg, m, "/f", []byte("async")); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitForUploads(bg); err != nil {
		t.Fatal(err)
	}
	got, err := scfs.ReadFile(bg, m, "/f")
	if err != nil || string(got) != "async" {
		t.Fatalf("%q, %v", got, err)
	}
}

// TestFacadeStreaming moves a multi-chunk payload through the streaming
// helpers.
func TestFacadeStreaming(t *testing.T) {
	m := mount(t)
	big := bytes.Repeat([]byte("stream me "), 300000) // ~3 MiB
	n, err := scfs.WriteFileFrom(bg, m, "/big", bytes.NewReader(big))
	if err != nil || n != int64(len(big)) {
		t.Fatalf("WriteFileFrom = %d, %v", n, err)
	}
	var out bytes.Buffer
	if _, err := scfs.ReadFileTo(bg, m, "/big", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), big) {
		t.Fatal("streamed round trip mismatch")
	}
}

func TestSingleCloudBackend(t *testing.T) {
	// One provided cloud is DepSky-A at f = 0.
	m := mount(t, scfs.WithClouds(newSimClient(t)))
	if err := scfs.WriteFile(bg, m, "/f", []byte("single")); err != nil {
		t.Fatal(err)
	}
	if got, err := scfs.ReadFile(bg, m, "/f"); err != nil || string(got) != "single" {
		t.Fatalf("%q, %v", got, err)
	}
}

// TestSingleCloudSharedAndRemounted: one store is DepSky-A at f = 0, so a
// version is readable by every mount over that provider, not only by the
// one that wrote it. A second agent sharing the coordination service reads
// the first one's small and multi-chunk files, and so does a fresh mount of
// the same user once the first has closed. The writer meters and prices its
// one cloud like a cloud-of-clouds mount.
func TestSingleCloudSharedAndRemounted(t *testing.T) {
	opts := []scfs.Option{scfs.WithClouds(newSimClient(t)), scfs.WithCoordination(sharedCoord())}
	files := map[string][]byte{
		"/small.txt": []byte("one cloud, two agents"),
		"/large.bin": bytes.Repeat([]byte("chunked!"), 3<<17), // 3 MiB: three chunks
	}
	writer := mount(t, append(opts, scfs.WithMetrics())...)
	for path, data := range files {
		if err := scfs.WriteFile(bg, writer, path, data); err != nil {
			t.Fatal(err)
		}
	}
	if spend := writer.Stats().Spend; len(spend) != 1 || spend[0].Dollars <= 0 {
		t.Errorf("metered spend of the one cloud: %+v", spend)
	}
	if cost, err := writer.CostReport(bg); err != nil || cost.CloudObjects == 0 || cost.StorageDollarsPerMonth <= 0 {
		t.Errorf("CostReport = %+v, %v; want the versions priced", cost, err)
	}
	readAll := func(who string, m *scfs.FS) {
		t.Helper()
		for path, want := range files {
			if got, err := scfs.ReadFile(bg, m, path); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s reads %s: %d bytes, %v; want the %d written", who, path, len(got), err, len(want))
			}
		}
	}
	readAll("a second agent", mount(t, opts...))
	if err := writer.Close(bg); err != nil {
		t.Fatal(err)
	}
	readAll("a remount", mount(t, opts...))
}

func TestBadCloudCount(t *testing.T) {
	if _, err := scfs.New(bg, scfs.WithClouds(newSimClient(t), newSimClient(t))); err == nil {
		t.Fatal("2 clouds accepted (need 1 or 3f+1)")
	}
}

// TestFaultToleranceTakenAsGiven: WithFaultTolerance is not rounded up. f = 0
// over four clouds would be DepSky-CA with a single key share, so New
// refuses it rather than silently running f = 1.
func TestFaultToleranceTakenAsGiven(t *testing.T) {
	stores := []scfs.ObjectStore{newSimClient(t), newSimClient(t), newSimClient(t), newSimClient(t)}
	m, err := scfs.New(bg, scfs.WithClouds(stores...), scfs.WithFaultTolerance(0))
	if err == nil {
		m.Close(bg)
		t.Fatal("f = 0 over four clouds accepted")
	}
}

// TestPrivateNameSpaces: with WithPrivateNameSpaces an unshared file's
// metadata lives in the user's private name space (§2.7 of the paper), not
// in the coordination service. Creating it still takes the two accesses of
// a create (its lock and the lookup), but an overwrite and a read of it
// take none, and a fresh mount of the same user over the same stores and
// coordination service reads it back from the name space the first mount
// flushed at Close, which also released the name space's lock.
func TestPrivateNameSpaces(t *testing.T) {
	opts := []scfs.Option{scfs.WithClouds(namedStores()...), scfs.WithCoordination(sharedCoord()), scfs.WithPrivateNameSpaces()}
	m := mount(t, opts...)
	accesses := func() int64 { return m.Stats().CoordAccesses }

	before := accesses()
	if err := scfs.WriteFile(bg, m, "/private.txt", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if n := accesses() - before; n != 2 {
		t.Fatalf("creating a private file took %d coordination accesses, want 2", n)
	}
	before = accesses()
	if err := scfs.WriteFile(bg, m, "/private.txt", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := scfs.ReadFile(bg, m, "/private.txt"); err != nil || string(got) != "v2" {
		t.Fatalf("read %q, %v; want v2", got, err)
	}
	if n := accesses() - before; n != 0 {
		t.Fatalf("overwriting and reading a private file took %d coordination accesses, want 0", n)
	}
	if err := m.Close(bg); err != nil {
		t.Fatal(err)
	}
	if got, err := scfs.ReadFile(bg, mount(t, opts...), "/private.txt"); err != nil || string(got) != "v2" {
		t.Fatalf("a remount reads %q, %v; want v2", got, err)
	}
}

// Example_walkDir demonstrates the io/fs interop: a cloud-of-clouds mount
// walked with the standard library.
func Example_walkDir() {
	ctx := context.Background()
	m, err := scfs.New(ctx)
	if err != nil {
		panic(err)
	}
	defer m.Close(ctx)

	_ = m.Mkdir(ctx, "/docs")
	_ = scfs.WriteFile(ctx, m, "/docs/a.txt", []byte("alpha"))
	_ = scfs.WriteFile(ctx, m, "/docs/b.txt", []byte("beta"))

	_ = fs.WalkDir(m.IOFS(ctx), ".", func(path string, d fs.DirEntry, err error) error {
		fmt.Println(path)
		return err
	})
	// Output:
	// .
	// docs
	// docs/a.txt
	// docs/b.txt
}

// TestHigherFaultToleranceDefaultSim: the default simulated deployment
// scales to 3f+1 providers when a higher f is requested.
func TestHigherFaultToleranceDefaultSim(t *testing.T) {
	m := mount(t, scfs.WithFaultTolerance(2))
	if err := scfs.WriteFile(bg, m, "/f", []byte("seven clouds")); err != nil {
		t.Fatal(err)
	}
	if got, err := scfs.ReadFile(bg, m, "/f"); err != nil || string(got) != "seven clouds" {
		t.Fatalf("%q, %v", got, err)
	}
}
