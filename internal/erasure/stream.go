package erasure

// Streaming / allocation-free entry points layered on the slice kernels.
//
// The whole-object API (Split, Reconstruct, Join) allocates its outputs,
// which is fine for one-shot encodes but wasteful inside the chunked
// pipeline of internal/stream where every chunk runs through the coder: the
// *Into variants below take caller-provided backing so buffers can come
// from (and return to) a pool, and ReconstructDataInto skips the parity
// recompute that range reads never need.

import "fmt"

// SplitInto is Split with caller-provided backing for the shards. backing
// must hold at least TotalShards()*ShardSize(len(data)) bytes (one byte
// minimum per shard for empty inputs); the returned shards alias it.
func (c *Coder) SplitInto(data []byte, backing []byte) ([][]byte, error) {
	shardSize := c.ShardSize(len(data))
	if shardSize == 0 {
		shardSize = 1 // allow empty payloads: one padding byte per shard
	}
	need := c.TotalShards() * shardSize
	if len(backing) < need {
		return nil, fmt.Errorf("erasure: backing holds %d bytes, need %d", len(backing), need)
	}
	shards := make([][]byte, c.TotalShards())
	for i := range shards {
		shards[i] = backing[i*shardSize : (i+1)*shardSize : (i+1)*shardSize]
	}
	for i := 0; i < c.DataShards; i++ {
		start := i * shardSize
		end := start + shardSize
		if start >= len(data) {
			clearSlice(shards[i])
			continue
		}
		if end > len(data) {
			n := copy(shards[i], data[start:])
			clearSlice(shards[i][n:])
			continue
		}
		copy(shards[i], data[start:end])
	}
	c.encodeParity(shards, shardSize)
	return shards, nil
}

func clearSlice(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// ReconstructDataInto rebuilds only the missing data shards (parity entries
// stay nil), using scratch as the backing for rebuilt shards. It is the
// reconstruction the ranged read path wants: Join never touches parity, so
// recomputing it is wasted work. scratch must hold at least
// missingDataShards*shardSize bytes; pass nil to allocate.
func (c *Coder) ReconstructDataInto(shards [][]byte, scratch []byte) error {
	return c.reconstruct(shards, scratch, false)
}

// reconstruct implements Reconstruct/ReconstructDataInto. When withParity is
// false only data shards are rebuilt and missing parity entries are left
// nil.
func (c *Coder) reconstruct(shards [][]byte, scratch []byte, withParity bool) error {
	if len(shards) != c.TotalShards() {
		return ErrShardCountMismatch
	}
	shardSize := -1
	present := 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if shardSize == -1 {
			shardSize = len(s)
		} else if len(s) != shardSize {
			return ErrShardSizeMismatch
		}
	}
	if present < c.DataShards {
		return ErrTooFewShards
	}
	if present == c.TotalShards() {
		return nil
	}

	// Gather the first k present shards as reconstruction sources; the
	// matching rows of the encode matrix identify the cached (or fresh)
	// decode matrix.
	subShards := make([][]byte, 0, c.DataShards)
	rowsUsed := make([]byte, 0, c.DataShards)
	for i := 0; i < c.TotalShards() && len(subShards) < c.DataShards; i++ {
		if shards[i] == nil {
			continue
		}
		subShards = append(subShards, shards[i])
		rowsUsed = append(rowsUsed, byte(i))
	}
	decode, err := c.decodeMatrix(rowsUsed)
	if err != nil {
		return err
	}

	missing := 0
	for i, s := range shards {
		if s != nil {
			continue
		}
		if withParity || i < c.DataShards {
			missing++
		}
	}
	backing := scratch
	if len(backing) < missing*shardSize {
		backing = make([]byte, missing*shardSize)
	}
	nextBuf := func() []byte {
		buf := backing[:shardSize:shardSize]
		backing = backing[shardSize:]
		return buf
	}

	// Recover missing data shards.
	dataShards := make([][]byte, c.DataShards)
	for d := 0; d < c.DataShards; d++ {
		if shards[d] != nil {
			dataShards[d] = shards[d]
			continue
		}
		out := nextBuf()
		mulRow(decode.Row(d), subShards, out)
		shards[d] = out
		dataShards[d] = out
	}
	if !withParity {
		return nil
	}

	// Recompute any missing parity shards from the (now complete) data.
	for p := 0; p < c.ParityShards; p++ {
		idx := c.DataShards + p
		if shards[idx] != nil {
			continue
		}
		out := nextBuf()
		mulRow(c.encode.Row(idx), dataShards, out)
		shards[idx] = out
	}
	return nil
}

// JoinInto reassembles the original data of length dataLen into dst, which
// must hold at least dataLen bytes. Only the data shards are read; call a
// reconstruct variant first if any are missing.
func (c *Coder) JoinInto(dst []byte, shards [][]byte, dataLen int) error {
	if len(shards) < c.DataShards {
		return ErrShardCountMismatch
	}
	if len(dst) < dataLen {
		return fmt.Errorf("erasure: destination holds %d bytes, need %d", len(dst), dataLen)
	}
	if dataLen == 0 {
		return nil
	}
	var shardSize int
	for i := 0; i < c.DataShards; i++ {
		if shards[i] == nil {
			return ErrTooFewShards
		}
		if i == 0 {
			shardSize = len(shards[i])
		} else if len(shards[i]) != shardSize {
			return ErrShardSizeMismatch
		}
	}
	if shardSize*c.DataShards < dataLen {
		return fmt.Errorf("erasure: shards hold %d bytes, need %d", shardSize*c.DataShards, dataLen)
	}
	written := 0
	for i := 0; i < c.DataShards && written < dataLen; i++ {
		need := dataLen - written
		if need > shardSize {
			need = shardSize
		}
		copy(dst[written:], shards[i][:need])
		written += need
	}
	return nil
}
