package depsky

// The newest-version register. SCFS names every file version by the hash its
// consistency anchor holds, so the file data path needs no pointer on the
// clouds. The private name space (storage.CoCPNS) has no anchor: it is looked
// up by user name, newest wins. Write and Read serve it with one fixed-size
// object per unit, "dsky/<unit>/head", holding a sequence number and
// the hash of the newest version. The head is written after its version
// reached a quorum, and the version it replaced is then deleted.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"sort"

	"scfs/internal/cloud"
	"scfs/internal/iopolicy"
	"scfs/internal/seccrypto"
)

// head is the register's value: the newest version's hash, and a sequence
// number one above every head its writer saw.
type head struct {
	seq  uint64
	hash string
}

// The head's encoding: magic, big-endian seq, the hash in hex.
const (
	headMagic = "DSKH"
	headLen   = len(headMagic) + 8 + 64
)

func (h head) encode() []byte {
	b := append(make([]byte, 0, headLen), headMagic...)
	b = binary.BigEndian.AppendUint64(b, h.seq)
	return append(b, h.hash...)
}

// decodeHead parses one cloud's copy of a head; false when it is not one.
func decodeHead(data []byte) (head, bool) {
	if len(data) != headLen || string(data[:len(headMagic)]) != headMagic {
		return head{}, false
	}
	h := head{seq: binary.BigEndian.Uint64(data[len(headMagic):]), hash: string(data[len(headMagic)+8:])}
	return h, validHash(h.hash)
}

func (m *Manager) headName(unit string) string { return m.unitPrefix(unit) + "head" }

// readHeads reads unit's head and returns the well-formed ones in the order
// Read tries them: first those f+1 clouds returned identical — at most f
// clouds lie, so one of those came from a writer — highest first, then the
// rest, highest first. It stops at n-f answers, as the DepSky read protocol
// waits for a quorum, when none of them holds a head or the highest head
// among them is vouched for that way; otherwise it hears every cloud, so that
// one cloud's head, forged or replayed, cannot outrank the newest a quorum of
// clouds stores.
func (m *Manager) readHeads(ctx context.Context, unit string) []head {
	name := m.headName(unit)
	rd := startRound(ctx, m, "head.get", iopolicy.GetOp(0), m.QuorumSize(),
		func(ctx context.Context, _ int, c cloud.ObjectStore) ([]byte, error) { return c.Get(ctx, name) },
		func(_ int, data []byte) (head, error) {
			h, ok := decodeHead(data)
			if !ok {
				return head{}, ErrIntegrity
			}
			return h, nil
		})
	defer rd.cancel()
	votes := make(map[head]int)
	var top head // the highest head heard
	for responded := 1; responded <= m.N(); responded++ {
		o := <-rd.outcomes
		if o.err != nil {
			rd.kick() // release one gated cloud, so the quorum still assembles
		} else if votes[o.val]++; o.val.seq >= top.seq {
			top = o.val
		}
		if responded >= m.QuorumSize() && !m.opts.DisableQuorumCancel {
			if len(votes) == 0 || votes[top] >= m.witnessSize() {
				break
			}
			rd.kick() // the highest head is one cloud's word so far: hear another
		}
	}
	heads := make([]head, 0, len(votes))
	for h := range votes {
		heads = append(heads, h)
	}
	vouched := func(h head) bool { return votes[h] >= m.witnessSize() }
	sort.Slice(heads, func(i, j int) bool {
		if vi, vj := vouched(heads[i]), vouched(heads[j]); vi != vj {
			return vi
		}
		return heads[i].seq > heads[j].seq
	})
	return heads
}

// Write stores data as the newest version of unit: the version by its hash
// (WriteFrom's protocol), beside the read of unit's head, then a head one
// above the one Read would follow. Once that head has reached n-f clouds the
// versions the heads it read named are deleted, best effort. A single writer
// per unit is assumed (SCFS serializes writers via its lock service).
func (m *Manager) Write(ctx context.Context, unit string, data []byte) (VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "write", unit)
	defer tr.Finish()
	hash := seccrypto.Hash(data)
	readCtx, cancelRead := context.WithCancel(ctx)
	defer cancelRead()
	read := make(chan []head, 1)
	go func() { read <- m.readHeads(readCtx, unit) }()

	info, err := m.writeVersion(ctx, unit, hash, bytes.NewReader(data))
	if err != nil {
		cancelRead()
	}
	heads := <-read
	if err = cmp.Or(err, ctx.Err()); err != nil {
		return VersionInfo{}, err
	}
	next := head{seq: 1, hash: hash}
	if len(heads) > 0 {
		next.seq = max(heads[0].seq, heads[0].seq+1) // saturates rather than wraps
	}
	payload := next.encode()
	if err := m.writeQuorum(ctx, m.headName(unit), "head.put", func(int) []byte { return payload }, nil, nil); err != nil {
		return VersionInfo{}, err
	}
	for _, h := range heads {
		if h.hash != hash {
			_, _ = m.DeleteVersion(ctx, unit, h.hash) // a failed delete only wastes space
		}
	}
	return info, nil
}

// Read returns the newest version of unit: the one the first head readHeads
// returns names. A head whose version does not read — one cloud's forged or
// stale head, say — gives way to the next. A unit no head names is
// ErrUnitNotFound.
func (m *Manager) Read(ctx context.Context, unit string) ([]byte, VersionInfo, error) {
	ctx, tr := m.opts.Tracer.Start(ctx, "read", unit)
	defer tr.Finish()
	err := ErrUnitNotFound
	for i, h := range m.readHeads(ctx, unit) {
		data, info, rerr := m.readMatching(ctx, unit, h.hash)
		if rerr == nil {
			return data, info, nil
		}
		if i == 0 {
			err = rerr
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, VersionInfo{}, cmp.Or(ctx.Err(), err)
}
