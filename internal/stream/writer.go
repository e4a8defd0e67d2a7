package stream

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Config tunes a streaming pipeline run.
type Config struct {
	// ChunkSize is the plaintext bytes per chunk (default DefaultChunkSize).
	ChunkSize int
	// Window bounds the number of encoded chunks whose store is in flight
	// (default Window). It is the mechanism parameter this package's tests
	// drive; producers leave it zero.
	Window int
	// Pool supplies the chunk buffers (default Buffers).
	Pool *Pool
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.Window <= 0 {
		c.Window = Window
	}
	if c.Pool == nil {
		c.Pool = Buffers
	}
	return c
}

// Result summarizes a completed pipeline run.
type Result struct {
	// Size is the total number of plaintext bytes consumed from the reader.
	Size int64
	// Chunks is the number of chunks emitted (0 for an empty stream).
	Chunks int
	// Sum256 is the SHA-256 of the whole plaintext stream, computed
	// incrementally while chunks were in flight.
	Sum256 [sha256.Size]byte
}

// Run consumes r in cfg.ChunkSize chunks and pipes every chunk through
// encode and then store. Each stage is bounded by what is resident in it:
// reading and encoding a chunk is processor work on several chunks' worth of
// buffers, so at most GOMAXPROCS chunks are in that stage; an encoded chunk
// only waits, so up to cfg.Window of them are being stored at once. A chunk
// leaves the first stage when it has a place in the second, which is what
// keeps encoded chunks from piling up in between. A stream of at most
// cfg.Window chunks is therefore stored in one round, and a longer one
// streams: while chunk j is being stored, chunk j+1 is being encoded and
// chunk j+2 is being read.
//
// encode transforms the plaintext chunk into an opaque encoded value; it runs
// on a pipeline goroutine and must not retain plain after returning (the
// buffer goes back to the pool). store persists the encoded value; distinct
// chunks may be stored out of order, so store must only rely on idx for
// placement. Both may run concurrently for different chunks.
//
// The first error stops the intake of new chunks, and Run returns it after
// all in-flight chunks have drained. Cancelling ctx stops the intake the
// same way: no new chunks are read, in-flight chunks drain (their encode and
// store callbacks are expected to observe the same ctx and fail fast), and
// Run returns ctx.Err().
func Run[E any](ctx context.Context, r io.Reader, cfg Config, encode func(idx int, plain []byte) (E, error), store func(idx int, enc E) error) (Result, error) {
	cfg = cfg.withDefaults()
	var (
		res  Result
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	setErr := func(err error) {
		mu.Lock()
		if fail == nil {
			fail = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fail != nil
	}

	h := sha256.New()
	encoding := make(chan struct{}, runtime.GOMAXPROCS(0))
	storing := make(chan struct{}, cfg.Window)
	for idx := 0; !failed(); idx++ {
		if err := ctx.Err(); err != nil {
			setErr(err)
			break
		}
		encoding <- struct{}{} // the chunk being read counts as being encoded
		buf := cfg.Pool.Get(cfg.ChunkSize)
		n, err := io.ReadFull(r, buf)
		if n == 0 {
			cfg.Pool.Put(buf)
			<-encoding
			if err != io.EOF && err != io.ErrUnexpectedEOF && err != nil {
				setErr(fmt.Errorf("stream: reading chunk %d: %w", idx, err))
			}
			break
		}
		plain := buf[:n]
		h.Write(plain)
		res.Size += int64(n)
		res.Chunks++
		wg.Add(1)
		go func(idx int, plain []byte) {
			defer wg.Done()
			enc, eerr := encode(idx, plain)
			cfg.Pool.Put(plain[:cap(plain)])
			if eerr != nil {
				<-encoding
			} else {
				storing <- struct{}{} // taken before the encode slot is given up
				<-encoding
				eerr = store(idx, enc)
				<-storing
			}
			if eerr != nil {
				setErr(fmt.Errorf("stream: chunk %d: %w", idx, eerr))
			}
		}(idx, plain)
		if err == io.ErrUnexpectedEOF {
			break // short final chunk
		}
		if err != nil && err != io.EOF {
			setErr(fmt.Errorf("stream: reading chunk %d: %w", idx+1, err))
			break
		}
		if err == io.EOF {
			break
		}
	}
	wg.Wait()
	h.Sum(res.Sum256[:0])
	mu.Lock()
	defer mu.Unlock()
	return res, fail
}
