package secretshare

import (
	"bytes"
	"crypto/rand"
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	secret := []byte("a 32-byte symmetric key material!")
	shares, err := Split(secret, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 4 {
		t.Fatalf("expected 4 shares, got %d", len(shares))
	}
	got, err := Combine(shares[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("combined secret differs from original")
	}
}

func TestCombineFromAnySubset(t *testing.T) {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	const n, threshold = 4, 2
	shares, err := Split(secret, n, threshold, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			got, err := Combine([]Share{shares[i], shares[j]}, threshold)
			if err != nil {
				t.Fatalf("Combine(%d,%d): %v", i, j, err)
			}
			if !bytes.Equal(got, secret) {
				t.Fatalf("Combine(%d,%d) produced a different secret", i, j)
			}
		}
	}
}

func TestSingleShareRevealsNothingUseful(t *testing.T) {
	// With threshold 2, reconstructing from a single share must not be
	// possible through the API, and a single share must not equal the secret
	// (overwhelmingly likely with random coefficients).
	secret := make([]byte, 64)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	shares, err := Split(secret, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Combine(shares[:1], 2); err != ErrTooFewShares {
		t.Fatalf("Combine with 1 share: err = %v, want ErrTooFewShares", err)
	}
	if bytes.Equal(shares[0].Data, secret) {
		t.Fatal("a single share leaked the secret verbatim")
	}
}

func TestSplitParameterValidation(t *testing.T) {
	secret := []byte("s")
	cases := []struct{ n, t int }{{1, 2}, {3, 1}, {2, 3}, {256, 2}, {300, 5}}
	for _, c := range cases {
		if _, err := Split(secret, c.n, c.t, nil); err == nil {
			t.Errorf("Split(n=%d,t=%d) succeeded, want error", c.n, c.t)
		}
	}
	if _, err := Split(nil, 3, 2, nil); err != ErrEmptySecret {
		t.Errorf("Split(empty) err = %v, want ErrEmptySecret", err)
	}
}

func TestCombineValidation(t *testing.T) {
	secret := []byte("hello world")
	shares, _ := Split(secret, 3, 2, nil)

	if _, err := Combine(shares, 1); err != ErrBadThreshold {
		t.Errorf("threshold 1: err = %v, want ErrBadThreshold", err)
	}
	dup := []Share{shares[0], shares[0]}
	if _, err := Combine(dup, 2); err != ErrDuplicateX {
		t.Errorf("duplicate shares: err = %v, want ErrDuplicateX", err)
	}
	bad := []Share{shares[0], {X: 0, Data: shares[1].Data}}
	if _, err := Combine(bad, 2); err != ErrInvalidShareX {
		t.Errorf("zero X: err = %v, want ErrInvalidShareX", err)
	}
	mixed := []Share{shares[0], {X: shares[1].X, Data: shares[1].Data[:3]}}
	if _, err := Combine(mixed, 2); err != ErrInconsistent {
		t.Errorf("inconsistent lengths: err = %v, want ErrInconsistent", err)
	}
	empty := []Share{{X: 1, Data: nil}, {X: 2, Data: nil}}
	if _, err := Combine(empty, 2); err != ErrEmptySecret {
		t.Errorf("empty shares: err = %v, want ErrEmptySecret", err)
	}
}

func TestDepSkyConfiguration(t *testing.T) {
	// DepSky for f=1: n = 3f+1 = 4 shares, threshold f+1 = 2.
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	shares, err := Split(key, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any single cloud failing (or being malicious and withholding its
	// share) must not prevent recovery: drop one share at a time.
	for drop := 0; drop < 4; drop++ {
		remaining := make([]Share, 0, 3)
		for i, s := range shares {
			if i != drop {
				remaining = append(remaining, s)
			}
		}
		got, err := Combine(remaining, 2)
		if err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		if !bytes.Equal(got, key) {
			t.Fatalf("drop %d: key mismatch", drop)
		}
	}
}

func TestShareDistributionLooksRandom(t *testing.T) {
	// A crude sanity check that shares are not trivially structured: the
	// byte-value histogram of a large share should not be wildly skewed.
	secret := make([]byte, 4096)
	shares, err := Split(secret, 3, 2, nil) // all-zero secret: shares still random
	if err != nil {
		t.Fatal(err)
	}
	var hist [256]int
	for _, b := range shares[1].Data {
		hist[b]++
	}
	expected := float64(len(shares[1].Data)) / 256.0
	var chi2 float64
	for _, c := range hist {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom; anything below ~400 is comfortably plausible.
	if chi2 > 400 || math.IsNaN(chi2) {
		t.Fatalf("share byte distribution is suspicious (chi2 = %f)", chi2)
	}
}

func TestPropertyRoundTripRandomSecrets(t *testing.T) {
	f := func(seed int64, sizeRaw uint8, nRaw, tRaw uint8) bool {
		r := mrand.New(mrand.NewSource(seed))
		size := int(sizeRaw)%128 + 1
		n := int(nRaw)%8 + 2       // 2..9
		thr := int(tRaw)%(n-1) + 2 // 2..n
		if thr > n {
			thr = n
		}
		secret := make([]byte, size)
		r.Read(secret)
		shares, err := Split(secret, n, thr, r)
		if err != nil {
			return false
		}
		// Shuffle and take the first thr shares.
		r.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		got, err := Combine(shares[:thr], thr)
		return err == nil && bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplit32ByteKey(b *testing.B) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(key, 4, 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine32ByteKey(b *testing.B) {
	key := make([]byte, 32)
	shares, _ := Split(key, 4, 2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(shares[:2], 2); err != nil {
			b.Fatal(err)
		}
	}
}
