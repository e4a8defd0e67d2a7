// Package stream implements the bounded-memory chunked data plane used by
// the DepSky backend: a write pipeline that consumes an io.Reader in
// fixed-size chunks and overlaps encrypt → erasure-encode → per-shard hash →
// quorum upload across a bounded window of in-flight chunks, and a random
// access reader that fetches (and, when clouds are faulty, reconstructs) only
// the chunks covering the requested byte range, all of them together.
//
// The package is deliberately mechanism-only: it knows nothing about clouds,
// erasure codes or cryptography. Producers plug an encode and a store
// function into Run, and consumers implement Fetcher for Reader. All chunk
// and shard buffers are drawn from a shared size-classed Pool so the write
// and read paths (and DepSky's degraded-read decode attempts) recycle the
// same memory.
package stream

import "sync"

const (
	// DefaultChunkSize is the plaintext bytes per pipeline chunk (1 MiB).
	DefaultChunkSize = 1 << 20
	// Window is the one bound on the chunks a transfer keeps in flight, in
	// both directions; how wide a transfer actually runs comes from the
	// request (the chunks a read covers, the chunks a write has encoded),
	// never from a guess. What it costs in memory: a read holds, per chunk
	// in flight, the k to n frames its fetch has received so far and no
	// plaintext beyond the caller's own buffer; a write holds GOMAXPROCS
	// chunks being encoded (plaintext, ciphertext, shards and frames, about
	// six chunks' worth each at n=4) plus the n frames of each of Window
	// chunks waiting on their quorum upload.
	Window = 8
)

// Pool size classes are powers of two from 1<<minClassBits to
// 1<<maxClassBits. Requests above the top class fall back to plain make and
// are dropped on Put; below the bottom class they are served from the bottom
// class.
const (
	minClassBits = 12 // 4 KiB
	maxClassBits = 23 // 8 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// Pool recycles byte buffers across the streaming write pipeline, the ranged
// read path and DepSky's decode attempts. Buffers are grouped into
// power-of-two size classes; Get returns a buffer of exactly the requested
// length backed by its class capacity.
type Pool struct {
	classes [numClasses]sync.Pool
}

// Buffers is the process-wide pool shared by the stream writer, the stream
// reader and the DepSky read path.
var Buffers = &Pool{}

// classFor returns the class index serving n bytes, or -1 when n exceeds the
// largest class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	for c := 0; c < numClasses; c++ {
		if n <= 1<<(minClassBits+c) {
			return c
		}
	}
	return -1
}

// Get returns a buffer of length n. The contents are undefined (buffers are
// reused without clearing); callers must overwrite every byte they read back.
func (p *Pool) Get(n int) []byte {
	if n < 0 {
		panic("stream: negative buffer size")
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if b, ok := p.classes[c].Get().([]byte); ok {
		return b[:n]
	}
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put returns a buffer obtained from Get to its size class. Buffers whose
// capacity does not match a class (e.g. allocated above the largest class)
// are dropped for the garbage collector.
func (p *Pool) Put(b []byte) {
	cp := cap(b)
	if cp == 0 {
		return
	}
	for c := 0; c < numClasses; c++ {
		if cp == 1<<(minClassBits+c) {
			p.classes[c].Put(b[:cp])
			return
		}
	}
}
