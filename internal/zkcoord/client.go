package zkcoord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"scfs/internal/clock"
	"scfs/internal/smr"
)

// AnyVersion disables the version check on Set and Delete.
const AnyVersion = int64(-1)

// Invoker submits a serialized command for ordered execution (smr.Client or
// LocalInvoker). Cancelling ctx abandons the invocation with ctx.Err().
type Invoker interface {
	Invoke(ctx context.Context, cmd []byte) ([]byte, error)
}

// LocalInvoker executes commands directly on a Tree (no replication). Like a
// replica wrapped in smr.BatchApplication, it executes a batch envelope as
// its sub-commands in order.
type LocalInvoker struct {
	Tree *Tree
}

// Invoke implements Invoker.
func (l *LocalInvoker) Invoke(ctx context.Context, cmd []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return (&smr.BatchApplication{App: l.Tree}).Execute(cmd), nil
}

// Typed errors mapped from Result.Err.
var (
	ErrNotFound    = errors.New(ErrNoNode)
	ErrExists      = errors.New(ErrNodeExists)
	ErrVersion     = errors.New(ErrBadVersion)
	ErrParent      = errors.New(ErrNoParent)
	ErrChildren    = errors.New(ErrNotEmpty)
	ErrMalformed   = errors.New(ErrBadCommand)
	ErrNotTheOwner = errors.New(ErrNotOwner)
)

func mapError(msg string) error {
	switch msg {
	case "":
		return nil
	case ErrNoNode:
		return ErrNotFound
	case ErrNodeExists:
		return ErrExists
	case ErrBadVersion:
		return ErrVersion
	case ErrNoParent:
		return ErrParent
	case ErrNotEmpty:
		return ErrChildren
	case ErrNotOwner:
		return ErrNotTheOwner
	case ErrBadCommand:
		return ErrMalformed
	default:
		return fmt.Errorf("zkcoord: %s", msg)
	}
}

// Client is the typed interface to a (possibly replicated) znode tree. Each
// client represents one session; ephemeral znodes it creates disappear when
// the session stops heart-beating.
type Client struct {
	inv     Invoker
	session string
	clk     clock.Clock
	// SessionTTL is the expiry attached to ephemeral nodes and renewed by
	// Heartbeat.
	SessionTTL time.Duration
}

// NewClient creates a session-scoped client.
func NewClient(inv Invoker, session string, clk clock.Clock) *Client {
	if clk == nil {
		clk = clock.Real()
	}
	return &Client{inv: inv, session: session, clk: clk, SessionTTL: 30 * time.Second}
}

// Failed returns the command's error reply as one of the package's typed
// errors, nil when the command succeeded.
func (r Result) Failed() error {
	if r.OK {
		return nil
	}
	return mapError(r.Err)
}

// Batch submits cmds as one ordered invocation — one round trip — and
// returns one Result per command, in order. The replicas execute the
// commands back to back but not atomically: each succeeds or fails on its
// own (Result.Failed), exactly as if issued singly at that point. The
// returned error is a failure of the invocation as a whole. A batch of one
// goes out as the plain command.
func (c *Client) Batch(ctx context.Context, cmds []Command) ([]Result, error) {
	now := c.clk.Now().UnixNano()
	encoded := make([][]byte, len(cmds))
	for i, cmd := range cmds {
		cmd.Session = c.session
		cmd.Now = now
		b, err := json.Marshal(cmd)
		if err != nil {
			return nil, fmt.Errorf("zkcoord: encoding command: %w", err)
		}
		encoded[i] = b
	}
	replies, err := smr.InvokeBatch(ctx, c.inv, encoded)
	if err != nil {
		return nil, fmt.Errorf("zkcoord: invoking %s: %w", opNames(cmds), err)
	}
	results := make([]Result, len(replies))
	for i, reply := range replies {
		if err := json.Unmarshal(reply, &results[i]); err != nil {
			return nil, fmt.Errorf("zkcoord: decoding reply: %w", err)
		}
	}
	return results, nil
}

// opNames renders the opcodes of cmds for error messages.
func opNames(cmds []Command) string {
	names := make([]string, len(cmds))
	for i, cmd := range cmds {
		names[i] = cmd.Op
	}
	return strings.Join(names, "+")
}

func (c *Client) do(ctx context.Context, cmd Command) (Result, error) {
	results, err := c.Batch(ctx, []Command{cmd})
	if err != nil {
		return Result{}, err
	}
	return results[0], results[0].Failed()
}

// The commands a Batch can carry; the typed methods below issue the same
// commands singly.

// CmdCreate creates a persistent znode.
func CmdCreate(p string, data []byte) Command {
	return Command{Op: opCreate, Path: p, Data: data, Version: AnyVersion}
}

// CmdCreateEphemeral creates an ephemeral znode, owned by the issuing
// session, that expires ttl after its last renewal.
func CmdCreateEphemeral(p string, data []byte, ttl time.Duration) Command {
	return Command{Op: opCreate, Path: p, Data: data, Ephemeral: true, TTLNanos: int64(ttl), Version: AnyVersion}
}

// CmdGet returns the data and stat of a znode.
func CmdGet(p string) Command { return Command{Op: opGet, Path: p, Version: AnyVersion} }

// CmdSet overwrites a znode's data (version AnyVersion disables the check)
// and renews an ephemeral znode's expiry to ttl.
func CmdSet(p string, data []byte, version int64, ttl time.Duration) Command {
	return Command{Op: opSet, Path: p, Data: data, Version: version, TTLNanos: int64(ttl)}
}

// CmdDelete removes a leaf znode; version AnyVersion disables the check.
func CmdDelete(p string, version int64) Command {
	return Command{Op: opDelete, Path: p, Version: version}
}

// CmdChildren lists the direct children names of a znode.
func CmdChildren(p string) Command { return Command{Op: opChildren, Path: p, Version: AnyVersion} }

// Create creates a persistent znode and returns its path.
func (c *Client) Create(ctx context.Context, p string, data []byte) (string, error) {
	res, err := c.do(ctx, CmdCreate(p, data))
	return res.Path, err
}

// CreateEphemeral creates an ephemeral znode owned by this session.
func (c *Client) CreateEphemeral(ctx context.Context, p string, data []byte) (string, error) {
	res, err := c.do(ctx, CmdCreateEphemeral(p, data, c.SessionTTL))
	return res.Path, err
}

// CreateSequential creates a persistent znode whose name gets a monotonically
// increasing suffix; it returns the final path.
func (c *Client) CreateSequential(ctx context.Context, p string, data []byte) (string, error) {
	res, err := c.do(ctx, Command{Op: opCreate, Path: p, Data: data, Sequential: true, Version: AnyVersion})
	return res.Path, err
}

// Get returns the data and stat of a znode.
func (c *Client) Get(ctx context.Context, p string) ([]byte, Stat, error) {
	res, err := c.do(ctx, CmdGet(p))
	return res.Data, res.Stat, err
}

// Set overwrites a znode's data; version AnyVersion disables the check.
func (c *Client) Set(ctx context.Context, p string, data []byte, version int64) (Stat, error) {
	res, err := c.do(ctx, CmdSet(p, data, version, c.SessionTTL))
	return res.Stat, err
}

// Delete removes a leaf znode; version AnyVersion disables the check.
func (c *Client) Delete(ctx context.Context, p string, version int64) error {
	_, err := c.do(ctx, CmdDelete(p, version))
	return err
}

// Children lists the direct children names of a znode.
func (c *Client) Children(ctx context.Context, p string) ([]string, error) {
	res, err := c.do(ctx, CmdChildren(p))
	return res.Children, err
}

// Exists reports whether a znode is present.
func (c *Client) Exists(ctx context.Context, p string) (bool, Stat, error) {
	res, err := c.do(ctx, Command{Op: opExists, Path: p, Version: AnyVersion})
	return res.Exists, res.Stat, err
}

// Heartbeat renews every ephemeral znode owned by this session and returns
// how many were renewed.
func (c *Client) Heartbeat(ctx context.Context) (int, error) {
	res, err := c.do(ctx, Command{Op: opHeartbeat, TTLNanos: int64(c.SessionTTL)})
	return res.Count, err
}

// Clean physically removes expired ephemeral znodes.
func (c *Client) Clean(ctx context.Context) (int, error) {
	res, err := c.do(ctx, Command{Op: opClean})
	return res.Count, err
}
