package seccrypto

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewKeyLengthAndUniqueness(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != KeySize || len(k2) != KeySize {
		t.Fatalf("key sizes = %d, %d; want %d", len(k1), len(k2), KeySize)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("two generated keys are identical")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key, _ := NewKey()
	for _, size := range []int{0, 1, 15, 16, 17, 1000, 1 << 16} {
		plaintext := bytes.Repeat([]byte{0xAB}, size)
		ct, err := Encrypt(key, plaintext)
		if err != nil {
			t.Fatalf("Encrypt(%d bytes): %v", size, err)
		}
		// Only meaningful for plaintexts long enough that a chance match
		// against the random IV/keystream is negligible (a 1-byte pattern
		// appears in a random 17-byte ciphertext with probability ~6%).
		if size >= 16 && bytes.Contains(ct, plaintext) {
			t.Fatalf("ciphertext contains plaintext for size %d", size)
		}
		pt, err := Decrypt(key, ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if !bytes.Equal(pt, plaintext) {
			t.Fatalf("round trip mismatch for size %d", size)
		}
	}
}

func TestEncryptProducesDistinctCiphertexts(t *testing.T) {
	key, _ := NewKey()
	msg := []byte("same message encrypted twice")
	c1, _ := Encrypt(key, msg)
	c2, _ := Encrypt(key, msg)
	if bytes.Equal(c1, c2) {
		t.Fatal("two encryptions of the same message are identical (IV reuse?)")
	}
}

func TestDecryptWithWrongKeyGivesGarbage(t *testing.T) {
	k1, _ := NewKey()
	k2, _ := NewKey()
	msg := []byte("confidential file contents")
	ct, _ := Encrypt(k1, msg)
	pt, err := Decrypt(k2, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pt, msg) {
		t.Fatal("decryption with the wrong key returned the plaintext")
	}
}

func TestKeySizeValidation(t *testing.T) {
	if _, err := Encrypt([]byte("short"), []byte("x")); err != ErrBadKeySize {
		t.Fatalf("Encrypt short key err = %v, want ErrBadKeySize", err)
	}
	if _, err := Decrypt([]byte("short"), make([]byte, 32)); err != ErrBadKeySize {
		t.Fatalf("Decrypt short key err = %v, want ErrBadKeySize", err)
	}
	key, _ := NewKey()
	if _, err := Decrypt(key, []byte("tiny")); err != ErrCiphertextLen {
		t.Fatalf("Decrypt short ciphertext err = %v, want ErrCiphertextLen", err)
	}
}

func TestHashDeterministicAndDistinct(t *testing.T) {
	a := Hash([]byte("file version 1"))
	b := Hash([]byte("file version 1"))
	c := Hash([]byte("file version 2"))
	if a != b {
		t.Fatal("Hash is not deterministic")
	}
	if a == c {
		t.Fatal("different inputs hashed to the same value")
	}
	if len(a) != 64 {
		t.Fatalf("SHA-256 hex length = %d, want 64", len(a))
	}
	if strings.ToLower(a) != a {
		t.Fatal("hash must be lowercase hex")
	}
}

func TestVerifyHash(t *testing.T) {
	data := []byte("object contents")
	h := Hash(data)
	if !VerifyHash(data, h) {
		t.Fatal("VerifyHash rejected a correct hash")
	}
	if VerifyHash([]byte("tampered"), h) {
		t.Fatal("VerifyHash accepted tampered data")
	}
	if VerifyHash(data, "not-hex") {
		t.Fatal("VerifyHash accepted malformed hash")
	}
	if VerifyHash(data, "abcd") {
		t.Fatal("VerifyHash accepted a truncated hash")
	}
}

func TestPropertyEncryptDecryptIdentity(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		ct, err := Encrypt(key, msg)
		if err != nil {
			return false
		}
		pt, err := Decrypt(key, ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt1MB(b *testing.B) {
	key, _ := NewKey()
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(key, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHash1MB(b *testing.B) {
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(data)
	}
}

func TestEncryptIntoDecryptIntoRoundTrip(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("streamed chunk payload")
	ct := make([]byte, len(msg)+CiphertextOverhead)
	if _, err := EncryptInto(ct, key, msg); err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, len(msg))
	if _, err := DecryptInto(pt, key, ct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("round trip mismatch")
	}
	// Sized-buffer contracts.
	if _, err := EncryptInto(make([]byte, len(msg)), key, msg); err == nil {
		t.Fatal("EncryptInto accepted an undersized buffer")
	}
	if _, err := DecryptInto(make([]byte, len(msg)+1), key, ct); err == nil {
		t.Fatal("DecryptInto accepted a missized buffer")
	}
	if _, err := DecryptInto(pt, key, ct[:CiphertextOverhead-1]); err == nil {
		t.Fatal("DecryptInto accepted a short ciphertext")
	}
}
