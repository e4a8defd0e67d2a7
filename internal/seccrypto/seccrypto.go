// Package seccrypto bundles the symmetric cryptography used by SCFS and
// DepSky: random key generation, AES-CTR encryption of file contents, and the
// collision-resistant hash used both by the consistency-anchor algorithm
// (SHA-256 here; the paper's metadata tuples carry SHA-1) and by DepSky's
// integrity verification.
package seccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// KeySize is the symmetric key size in bytes (AES-256).
const KeySize = 32

// Errors returned by this package.
var (
	ErrBadKeySize    = errors.New("seccrypto: key must be 32 bytes")
	ErrCiphertextLen = errors.New("seccrypto: ciphertext too short")
)

// NewKey generates a fresh random AES-256 key.
func NewKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("seccrypto: generating key: %w", err)
	}
	return key, nil
}

// CiphertextOverhead is the size difference between a ciphertext and its
// plaintext: the prepended IV.
const CiphertextOverhead = aes.BlockSize

// Encrypt encrypts plaintext with AES-256-CTR using a random IV. The IV is
// prepended to the returned ciphertext. CTR mode matches the paper's usage:
// confidentiality of the payload; integrity is provided separately by the
// hash stored in the consistency anchor / DepSky metadata.
func Encrypt(key, plaintext []byte) ([]byte, error) {
	return EncryptInto(make([]byte, aes.BlockSize+len(plaintext)), key, plaintext)
}

// EncryptInto is Encrypt writing into dst, which must hold exactly
// len(plaintext)+CiphertextOverhead bytes (the streaming data plane draws it
// from a buffer pool). The returned slice is dst.
func EncryptInto(dst, key, plaintext []byte) ([]byte, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	if len(dst) != aes.BlockSize+len(plaintext) {
		return nil, fmt.Errorf("seccrypto: ciphertext buffer is %d bytes, need %d", len(dst), aes.BlockSize+len(plaintext))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: %w", err)
	}
	iv := dst[:aes.BlockSize]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("seccrypto: generating IV: %w", err)
	}
	stream := cipher.NewCTR(block, iv)
	stream.XORKeyStream(dst[aes.BlockSize:], plaintext)
	return dst, nil
}

// Decrypt reverses Encrypt.
func Decrypt(key, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < aes.BlockSize {
		return nil, ErrCiphertextLen
	}
	return DecryptInto(make([]byte, len(ciphertext)-aes.BlockSize), key, ciphertext)
}

// DecryptInto is Decrypt writing into dst, which must hold exactly
// len(ciphertext)-CiphertextOverhead bytes. The returned slice is dst.
func DecryptInto(dst, key, ciphertext []byte) ([]byte, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	if len(ciphertext) < aes.BlockSize {
		return nil, ErrCiphertextLen
	}
	if len(dst) != len(ciphertext)-aes.BlockSize {
		return nil, fmt.Errorf("seccrypto: plaintext buffer is %d bytes, need %d", len(dst), len(ciphertext)-aes.BlockSize)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: %w", err)
	}
	iv := ciphertext[:aes.BlockSize]
	stream := cipher.NewCTR(block, iv)
	stream.XORKeyStream(dst, ciphertext[aes.BlockSize:])
	return dst, nil
}

// Hash returns the hex-encoded SHA-256 digest of data. This is the
// collision-resistant hash carried by metadata tuples and DepSky metadata.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// VerifyHash reports whether data matches the given hex-encoded SHA-256 hash
// in constant time with respect to the hash comparison.
func VerifyHash(data []byte, hexHash string) bool {
	sum := sha256.Sum256(data)
	want, err := hex.DecodeString(hexHash)
	if err != nil || len(want) != sha256.Size {
		return false
	}
	return hmac.Equal(sum[:], want)
}
