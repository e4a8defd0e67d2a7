package coord

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"time"

	"scfs/internal/depspace"
)

// Tuple layout used in the DepSpace backend. Metadata tuples are
// <"meta", key, payload>; lock tuples are <"lock", name, owner>.
const (
	tagMeta = "meta"
	tagLock = "lock"
)

// DepSpaceService adapts a DepSpace tuple-space client to the coordination
// Service interface. This is the configuration evaluated in the paper
// (DepSpace replicated with BFT-SMaRt).
type DepSpaceService struct {
	cli *depspace.Client
	statsCounter
}

var _ Service = (*DepSpaceService)(nil)

// NewDepSpaceService wraps a tuple-space client.
func NewDepSpaceService(cli *depspace.Client) *DepSpaceService {
	return &DepSpaceService{cli: cli}
}

func dsACL(a ACL) depspace.ACL {
	return depspace.ACL{Owner: a.Owner, Readers: a.Readers, Writers: a.Writers}
}

func encodePayload(v []byte) string { return base64.StdEncoding.EncodeToString(v) }

func decodePayload(s string) ([]byte, error) { return base64.StdEncoding.DecodeString(s) }

func mapDepSpaceError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, depspace.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, depspace.ErrExists), errors.Is(err, depspace.ErrVersion):
		return ErrConflict
	case errors.Is(err, depspace.ErrDenied):
		return ErrDenied
	default:
		return err
	}
}

// dsCommand translates a batchable command into its tuple-space command.
func dsCommand(op Op) (depspace.Command, error) {
	switch op.Kind {
	case OpGet:
		return depspace.CmdRdp(depspace.Tuple{tagMeta, op.Key, depspace.Wildcard}), nil
	case OpPut:
		return depspace.CmdReplace(
			depspace.Tuple{tagMeta, op.Key, depspace.Wildcard},
			depspace.Tuple{tagMeta, op.Key, encodePayload(op.Value)},
			dsACL(op.ACL)), nil
	case OpList:
		// The replicas test the prefix, so the reply is the directory.
		cmd := depspace.CmdRdAll(depspace.Tuple{tagMeta, depspace.Wildcard, depspace.Wildcard})
		cmd.FieldIndex, cmd.Prefix = 1, op.Key
		return cmd, nil
	case OpTryLock:
		// A conditional insertion of an ephemeral tuple.
		return depspace.CmdCas(
			depspace.Tuple{tagLock, op.Key, depspace.Wildcard},
			depspace.Tuple{tagLock, op.Key, op.Owner},
			0, depspace.ACL{}, op.TTL), nil
	case OpUnlock:
		return depspace.CmdInp(depspace.Tuple{tagLock, op.Key, op.Owner}), nil
	case OpDelete:
		cmd := depspace.CmdInp(depspace.Tuple{tagMeta, op.Key, depspace.Wildcard})
		cmd.ExpectedVersion = op.Version
		return cmd, nil
	case OpCas:
		return depspace.CmdCas(
			depspace.Tuple{tagMeta, op.Key, depspace.Wildcard},
			depspace.Tuple{tagMeta, op.Key, encodePayload(op.Value)},
			op.Version, dsACL(op.ACL), 0), nil
	default:
		return depspace.Command{}, fmt.Errorf("coord: command %d cannot be batched", op.Kind)
	}
}

// recordOf decodes a metadata tuple.
func recordOf(e depspace.Entry) (Record, error) {
	if len(e.Tuple) != 3 {
		return Record{}, fmt.Errorf("coord: malformed metadata tuple %v", e.Tuple)
	}
	val, err := decodePayload(e.Tuple[2])
	if err != nil {
		return Record{}, fmt.Errorf("coord: corrupt metadata payload for %q: %w", e.Tuple[1], err)
	}
	return Record{Key: e.Tuple[1], Value: val, Version: e.Version}, nil
}

// dsResult translates the tuple space's reply to op's command into what the
// Service method would return. A TryLock refused because the lock tuple
// exists comes back as ErrLockHeld; run renews it when the holder is the
// caller.
func dsResult(op Op, res depspace.Result) Result {
	err := res.Failed()
	switch op.Kind {
	case OpGet:
		if err != nil {
			return Result{Err: mapDepSpaceError(err)}
		}
		if res.Entry == nil {
			return Result{Err: fmt.Errorf("coord: empty reply reading %q", op.Key)}
		}
		rec, err := recordOf(*res.Entry)
		return Result{Record: rec, Err: err}
	case OpList:
		if err != nil {
			return Result{Err: mapDepSpaceError(err)}
		}
		var out []Record
		for _, e := range res.Entries {
			// Replies come from outside the program: test the prefix again.
			if len(e.Tuple) != 3 || !strings.HasPrefix(e.Tuple[1], op.Key) {
				continue
			}
			if rec, err := recordOf(e); err == nil {
				out = append(out, rec)
			}
		}
		return Result{Records: out}
	case OpPut, OpCas:
		r := Result{Version: res.Version, Err: mapDepSpaceError(err)}
		if e := res.Entry; op.Kind == OpCas && errors.Is(r.Err, ErrConflict) && e != nil {
			// The tuple the command clashed with: what a Get would return.
			if r.Record, err = recordOf(*e); err != nil {
				r.Err = err
			}
		}
		return r
	case OpTryLock:
		if errors.Is(err, depspace.ErrExists) {
			return Result{Err: ErrLockHeld}
		}
	case OpUnlock, OpDelete:
		if errors.Is(err, depspace.ErrNotFound) {
			return Result{} // already released, expired or deleted
		}
	}
	return Result{Err: mapDepSpaceError(err)}
}

// run executes ops as one tuple-space invocation.
func (d *DepSpaceService) run(ctx context.Context, ops []Op) ([]Result, error) {
	cmds := make([]depspace.Command, len(ops))
	for i, op := range ops {
		var err error
		if cmds[i], err = dsCommand(op); err != nil {
			return nil, err
		}
	}
	replies, err := d.cli.Batch(ctx, cmds)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(ops))
	for i, op := range ops {
		out[i] = dsResult(op, replies[i])
		if e := replies[i].Entry; op.Kind == OpTryLock && errors.Is(out[i].Err, ErrLockHeld) &&
			e != nil && len(e.Tuple) == 3 && e.Tuple[2] == op.Owner {
			// Re-entrant acquisition by the same owner: renew the lease.
			// The tuple space has no renew-if-mine command, so this rare
			// case costs a second access.
			d.addLock()
			if _, _, casErr := d.cli.Cas(ctx, e.Tuple, e.Tuple, e.Version, depspace.ACL{}, op.TTL); casErr == nil {
				out[i].Err = nil
			}
		}
	}
	return out, nil
}

// one issues a single command.
func (d *DepSpaceService) one(ctx context.Context, op Op) (Result, error) {
	out, err := d.run(ctx, []Op{op})
	if err != nil {
		return Result{}, err
	}
	return out[0], out[0].Err
}

// Batch implements Service: the commands travel in one envelope and the
// tuple space executes them back to back. Only a TryLock that finds the
// lock already held by its own owner needs more: the lease is renewed in a
// second access, after the rest of the batch.
func (d *DepSpaceService) Batch(ctx context.Context, ops []Op) ([]Result, error) {
	d.addBatch()
	return d.run(ctx, ops)
}

// GetMetadata implements Service.
func (d *DepSpaceService) GetMetadata(ctx context.Context, key string) (Record, error) {
	d.addRead()
	r, err := d.one(ctx, Get(key))
	return r.Record, err
}

// PutMetadata implements Service.
func (d *DepSpaceService) PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error) {
	d.addWrite()
	r, err := d.one(ctx, Put(key, value, acl))
	return r.Version, err
}

// CasMetadata implements Service.
func (d *DepSpaceService) CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error) {
	d.addWrite()
	r, err := d.one(ctx, Cas(key, value, expectedVersion, acl))
	return r.Version, err
}

// DeleteMetadata implements Service.
func (d *DepSpaceService) DeleteMetadata(ctx context.Context, key string) error {
	d.addWrite()
	_, err := d.one(ctx, Delete(key, 0))
	return err
}

// ListMetadata implements Service.
func (d *DepSpaceService) ListMetadata(ctx context.Context, prefix string) ([]Record, error) {
	d.addList()
	r, err := d.one(ctx, List(prefix))
	return r.Records, err
}

// RenamePrefix implements Service using the DepSpace trigger extension.
func (d *DepSpaceService) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	d.addWrite()
	n, err := d.cli.Rename(ctx, 1, oldPrefix, newPrefix)
	return n, mapDepSpaceError(err)
}

// TryLock implements Service.
func (d *DepSpaceService) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	d.addLock()
	_, err := d.one(ctx, TryLock(name, owner, ttl))
	return err
}

// Unlock implements Service.
func (d *DepSpaceService) Unlock(ctx context.Context, name, owner string) error {
	d.addLock()
	_, err := d.one(ctx, Unlock(name, owner))
	return err
}
