package coord

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"time"

	"scfs/internal/zkcoord"
)

// Znode layout used by the Zookeeper-like backend.
const (
	zkMetaRoot = "/scfs/meta"
	zkLockRoot = "/scfs/locks"
)

// ZKService adapts the Zookeeper-like coordination service to the Service
// interface. ACLs are not enforced by this backend (as with plain Zookeeper
// deployments that rely on network perimeter security); the DepSpace backend
// is the one providing the paper's full security model.
type ZKService struct {
	cli *zkcoord.Client
	statsCounter
}

var _ Service = (*ZKService)(nil)

// NewZKService wraps a znode client and creates the SCFS root znodes.
func NewZKService(ctx context.Context, cli *zkcoord.Client) (*ZKService, error) {
	s := &ZKService{cli: cli}
	for _, p := range []string{"/scfs", zkMetaRoot, zkLockRoot} {
		if _, err := cli.Create(ctx, p, nil); err != nil && !errors.Is(err, zkcoord.ErrExists) {
			return nil, err
		}
	}
	return s, nil
}

// encodeKey flattens an SCFS key (a slash-separated path) into a single znode
// name so the metadata table stays one level deep.
func encodeKey(key string) string { return url.PathEscape(key) }

func decodeKey(name string) string {
	k, err := url.PathUnescape(name)
	if err != nil {
		return name
	}
	return k
}

func mapZKError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, zkcoord.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, zkcoord.ErrExists), errors.Is(err, zkcoord.ErrVersion):
		return ErrConflict
	default:
		return err
	}
}

func metaPath(key string) string  { return zkMetaRoot + "/" + encodeKey(key) }
func lockPath(name string) string { return zkLockRoot + "/" + encodeKey(name) }

// zkStep is the part of one batched command that travels in one round trip:
// its znode commands, and what to make of their replies — the command's
// Result, or a further step when the outcome needs another access (the
// record reads of a listing, the delete of an unlock, a same-owner lock
// renewal: the tree has no single command for those).
type zkStep struct {
	cmds   []zkcoord.Command
	finish func(replies []zkcoord.Result) (Result, *zkStep)
}

// zkLast is a step whose finish never needs a further one.
func zkLast(cmds []zkcoord.Command, finish func(replies []zkcoord.Result) Result) *zkStep {
	return &zkStep{cmds: cmds, finish: func(r []zkcoord.Result) (Result, *zkStep) { return finish(r), nil }}
}

// zkFirstStep translates a batchable command into its first step.
func zkFirstStep(op Op) (*zkStep, error) {
	switch op.Kind {
	case OpGet:
		return zkLast([]zkcoord.Command{zkcoord.CmdGet(metaPath(op.Key))}, func(r []zkcoord.Result) Result {
			return Result{Record: Record{Key: op.Key, Value: r[0].Data, Version: r[0].Stat.Version}, Err: mapZKError(r[0].Failed())}
		}), nil
	case OpPut:
		// Overwrite, else create: whether the znode exists or not, exactly
		// one of the pair succeeds.
		p := metaPath(op.Key)
		cmds := []zkcoord.Command{zkcoord.CmdSet(p, op.Value, zkcoord.AnyVersion, 0), zkcoord.CmdCreate(p, op.Value)}
		return zkLast(cmds, func(r []zkcoord.Result) Result {
			if r[0].OK {
				return Result{Version: r[0].Stat.Version}
			}
			if err := r[0].Failed(); !errors.Is(err, zkcoord.ErrNotFound) {
				return Result{Err: mapZKError(err)}
			}
			return Result{Version: r[1].Stat.Version, Err: mapZKError(r[1].Failed())}
		}), nil
	case OpList:
		return &zkStep{cmds: []zkcoord.Command{zkcoord.CmdChildren(zkMetaRoot)}, finish: func(r []zkcoord.Result) (Result, *zkStep) {
			if err := r[0].Failed(); err != nil {
				return Result{Err: mapZKError(err)}, nil
			}
			var keys []string
			var gets []zkcoord.Command
			for _, name := range r[0].Children {
				if key := decodeKey(name); strings.HasPrefix(key, op.Key) {
					keys = append(keys, key)
					gets = append(gets, zkcoord.CmdGet(zkMetaRoot+"/"+name))
				}
			}
			if len(gets) == 0 {
				return Result{}, nil
			}
			return Result{}, zkLast(gets, func(r []zkcoord.Result) Result {
				var out []Record
				for i, key := range keys {
					if r[i].OK {
						out = append(out, Record{Key: key, Value: r[i].Data, Version: r[i].Stat.Version})
					}
				}
				return Result{Records: out}
			})
		}}, nil
	case OpTryLock:
		// An ephemeral znode per lock, holding the owner's name.
		p := lockPath(op.Key)
		cmds := []zkcoord.Command{zkcoord.CmdCreateEphemeral(p, []byte(op.Owner), op.TTL), zkcoord.CmdGet(p)}
		return &zkStep{cmds: cmds, finish: func(r []zkcoord.Result) (Result, *zkStep) {
			if err := r[0].Failed(); !errors.Is(err, zkcoord.ErrExists) {
				return Result{Err: mapZKError(err)}, nil
			}
			if !r[1].OK || string(r[1].Data) != op.Owner {
				return Result{Err: ErrLockHeld}, nil
			}
			// Same owner: renew by touching the node.
			renew := []zkcoord.Command{zkcoord.CmdSet(p, r[1].Data, zkcoord.AnyVersion, op.TTL)}
			return Result{}, zkLast(renew, func(r []zkcoord.Result) Result {
				if !r[0].OK {
					return Result{Err: ErrLockHeld}
				}
				return Result{}
			})
		}}, nil
	case OpUnlock:
		p := lockPath(op.Key)
		return &zkStep{cmds: []zkcoord.Command{zkcoord.CmdGet(p)}, finish: func(r []zkcoord.Result) (Result, *zkStep) {
			switch err := r[0].Failed(); {
			case errors.Is(err, zkcoord.ErrNotFound):
				return Result{}, nil
			case err != nil:
				return Result{Err: mapZKError(err)}, nil
			case string(r[0].Data) != op.Owner:
				return Result{Err: ErrLockHeld}, nil
			}
			del := []zkcoord.Command{zkcoord.CmdDelete(p, zkcoord.AnyVersion)}
			return Result{}, zkLast(del, zkDeleted)
		}}, nil
	case OpDelete:
		version := zkcoord.AnyVersion
		if op.Version != 0 {
			version = int64(op.Version)
		}
		return zkLast([]zkcoord.Command{zkcoord.CmdDelete(metaPath(op.Key), version)}, zkDeleted), nil
	case OpCas:
		// Version 0 asks for a creation, any other an overwrite at that version.
		cmd := zkcoord.CmdCreate(metaPath(op.Key), op.Value)
		if op.Version != 0 {
			cmd = zkcoord.CmdSet(metaPath(op.Key), op.Value, int64(op.Version), 0)
		}
		return zkLast([]zkcoord.Command{cmd}, func(r []zkcoord.Result) Result {
			if err := r[0].Failed(); err != nil {
				return Result{Err: mapZKError(err)}
			}
			return Result{Version: r[0].Stat.Version}
		}), nil
	default:
		return nil, fmt.Errorf("coord: command %d cannot be batched", op.Kind)
	}
}

// zkDeleted is the Result of a znode deletion: a node already gone is no
// error.
func zkDeleted(r []zkcoord.Result) Result {
	if err := r[0].Failed(); err != nil && !errors.Is(err, zkcoord.ErrNotFound) {
		return Result{Err: mapZKError(err)}
	}
	return Result{}
}

// run executes ops: every command's first step travels in one invocation,
// in order; the steps that need a further access (see zkStep) follow
// together in a second one.
func (z *ZKService) run(ctx context.Context, ops []Op) ([]Result, error) {
	steps := make([]*zkStep, len(ops))
	for i, op := range ops {
		var err error
		if steps[i], err = zkFirstStep(op); err != nil {
			return nil, err
		}
	}
	out := make([]Result, len(ops))
	for pending := len(ops); pending > 0; {
		var cmds []zkcoord.Command
		for _, st := range steps {
			if st != nil {
				cmds = append(cmds, st.cmds...)
			}
		}
		replies, err := z.cli.Batch(ctx, cmds)
		if err != nil {
			return nil, err
		}
		for i, st := range steps {
			if st == nil {
				continue
			}
			n := len(st.cmds)
			out[i], steps[i] = st.finish(replies[:n])
			replies = replies[n:]
			if steps[i] == nil {
				pending--
			}
		}
	}
	return out, nil
}

// one issues a single command.
func (z *ZKService) one(ctx context.Context, op Op) (Result, error) {
	out, err := z.run(ctx, []Op{op})
	if err != nil {
		return Result{}, err
	}
	return out[0], out[0].Err
}

// Batch implements Service. Commands whose outcome takes two znode
// accesses — a listing, an unlock, a same-owner lock renewal — complete in a
// second round trip, after every other command of the batch.
func (z *ZKService) Batch(ctx context.Context, ops []Op) ([]Result, error) {
	z.addBatch()
	return z.run(ctx, ops)
}

// GetMetadata implements Service.
func (z *ZKService) GetMetadata(ctx context.Context, key string) (Record, error) {
	z.addRead()
	r, err := z.one(ctx, Get(key))
	return r.Record, err
}

// PutMetadata implements Service.
func (z *ZKService) PutMetadata(ctx context.Context, key string, value []byte, acl ACL) (uint64, error) {
	z.addWrite()
	r, err := z.one(ctx, Put(key, value, acl))
	return r.Version, err
}

// CasMetadata implements Service.
func (z *ZKService) CasMetadata(ctx context.Context, key string, value []byte, expectedVersion uint64, acl ACL) (uint64, error) {
	z.addWrite()
	r, err := z.one(ctx, Cas(key, value, expectedVersion, acl))
	return r.Version, err
}

// DeleteMetadata implements Service.
func (z *ZKService) DeleteMetadata(ctx context.Context, key string) error {
	z.addWrite()
	_, err := z.one(ctx, Delete(key, 0))
	return err
}

// ListMetadata implements Service.
func (z *ZKService) ListMetadata(ctx context.Context, prefix string) ([]Record, error) {
	z.addList()
	r, err := z.one(ctx, List(prefix))
	return r.Records, err
}

// RenamePrefix implements Service. The znode backend has no server-side
// trigger, so the rewrite is performed record by record (the reason the paper
// added triggers to DepSpace).
func (z *ZKService) RenamePrefix(ctx context.Context, oldPrefix, newPrefix string) (int, error) {
	records, err := z.ListMetadata(ctx, oldPrefix)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, r := range records {
		if r.Key != oldPrefix && !strings.HasPrefix(r.Key, oldPrefix+"/") {
			continue
		}
		newKey := newPrefix + strings.TrimPrefix(r.Key, oldPrefix)
		if _, err := z.PutMetadata(ctx, newKey, r.Value, r.ACL); err != nil {
			return count, err
		}
		if err := z.DeleteMetadata(ctx, r.Key); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// TryLock implements Service.
func (z *ZKService) TryLock(ctx context.Context, name, owner string, ttl time.Duration) error {
	z.addLock()
	_, err := z.one(ctx, TryLock(name, owner, ttl))
	return err
}

// Unlock implements Service.
func (z *ZKService) Unlock(ctx context.Context, name, owner string) error {
	z.addLock()
	_, err := z.one(ctx, Unlock(name, owner))
	return err
}
