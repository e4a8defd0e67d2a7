package depspace

import (
	"context"
	"fmt"
	"strings"
	"time"

	"scfs/internal/clock"
	"scfs/internal/smr"
)

// Invoker is what a Client submits its serialized commands through:
// smr.Client and smr.Coalescer order them across the replicas (or query
// them, for reads); a LocalInvoker runs against an in-process Space without
// replication (used by unit tests and by the non-sharing SCFS mode
// experiments). Cancelling ctx abandons the invocation with ctx.Err().
type Invoker = smr.Invoker

// LocalInvoker executes commands directly on a Space. Like a replica
// wrapped in smr.BatchApplication, it takes a batch envelope, executes its
// commands in order and answers with an envelope of their replies. It has
// one copy of the state, so reads need no query: it executes them too.
type LocalInvoker struct {
	Space *Space
}

// Invoke implements Invoker.
func (l *LocalInvoker) Invoke(ctx context.Context, cmd []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return (&smr.BatchApplication{App: l.Space}).Execute(cmd), nil
}

// Client is the typed interface to a (possibly replicated) tuple space.
type Client struct {
	inv       Invoker
	requester string
	clk       clock.Clock
}

// NewClient creates a tuple-space client acting as the given principal.
func NewClient(inv Invoker, requester string, clk clock.Clock) *Client {
	if clk == nil {
		clk = clock.Real()
	}
	return &Client{inv: inv, requester: requester, clk: clk}
}

// Requester returns the principal this client acts as.
func (c *Client) Requester() string { return c.requester }

// Batch submits cmds as one invocation — one round trip, one envelope of
// one command or more — and returns one Result per command, in order. A
// batch of reads only (CmdRdp, CmdRdAll) goes under a context marked
// smr.ReadOnly: replicated, it is one query that the replicas answer from
// their current state without ordering it (see smr.Client), and it passes
// any smr.Coalescer by. Any other batch is
// ordered: the replicas execute the commands back to back but not
// atomically, each succeeding or failing on its own (Result.Failed),
// exactly as if issued singly at that point. The returned error is a
// failure of the invocation as a whole.
func (c *Client) Batch(ctx context.Context, cmds []Command) ([]Result, error) {
	now := c.clk.Now().UnixNano()
	encoded := make([][]byte, len(cmds))
	readOnly := true
	for i, cmd := range cmds {
		readOnly = readOnly && (cmd.Op == opRdp || cmd.Op == opRdAll)
		cmd.Requester, cmd.Now = c.requester, now
		encoded[i] = appendCommand(nil, cmd)
	}
	if readOnly {
		ctx = smr.ReadOnly(ctx)
	}
	replies, err := smr.InvokeBatch(ctx, c.inv, encoded)
	if err != nil {
		return nil, fmt.Errorf("depspace: invoking %s: %w", opNames(cmds), err)
	}
	results := make([]Result, len(replies))
	for i, reply := range replies {
		if results[i], err = decodeResult(reply); err != nil {
			return nil, fmt.Errorf("depspace: decoding reply: %w", err)
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

// Out inserts a tuple with the given ACL.
func (c *Client) Out(ctx context.Context, t Tuple, acl ACL) (uint64, error) {
	res, err := c.do(ctx, Command{Op: opOut, Tuple: t, ACL: acl})
	return res.Version, err
}

// The commands a Batch can carry; the typed methods below issue some of
// them singly.

// CmdRdp reads (without removing) one tuple matching the template.
func CmdRdp(template Tuple) Command { return Command{Op: opRdp, Template: template} }

// CmdRdAll reads every tuple matching the template that the requester may
// read.
func CmdRdAll(template Tuple) Command { return Command{Op: opRdAll, Template: template} }

// CmdInp removes and returns one tuple matching the template; setting the
// command's ExpectedVersion removes it only at that version.
func CmdInp(template Tuple) Command { return Command{Op: opInp, Template: template} }

// CmdReplace atomically substitutes the tuple matching template (if any)
// with replacement.
func CmdReplace(template, replacement Tuple, acl ACL) Command {
	return Command{Op: opReplace, Template: template, Replacement: replacement, ACL: acl}
}

// CmdCas inserts replacement only if the tuple matching template has the
// expected version (0 = must not exist); a positive ttl makes the inserted
// tuple ephemeral.
func CmdCas(template, replacement Tuple, expectedVersion uint64, acl ACL, ttl time.Duration) Command {
	return Command{
		Op:              opCas,
		Template:        template,
		Replacement:     replacement,
		ExpectedVersion: expectedVersion,
		ACL:             acl,
		TTLNanos:        int64(ttl),
	}
}

// Rdp reads (without removing) one tuple matching the template.
func (c *Client) Rdp(ctx context.Context, template Tuple) (*Entry, error) {
	res, err := c.do(ctx, CmdRdp(template))
	if err != nil {
		return nil, err
	}
	return res.Entry, nil
}

// RdAll reads every tuple matching the template that the requester may read.
func (c *Client) RdAll(ctx context.Context, template Tuple) ([]Entry, error) {
	res, err := c.do(ctx, CmdRdAll(template))
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// Cas inserts replacement only if the tuple matching template has the
// expected version (0 = must not exist). On success it returns the new
// version; on a conflict it returns ErrExists or ErrVersion together with the
// conflicting entry (may be nil).
func (c *Client) Cas(ctx context.Context, template, replacement Tuple, expectedVersion uint64, acl ACL, ttl time.Duration) (uint64, *Entry, error) {
	res, err := c.do(ctx, CmdCas(template, replacement, expectedVersion, acl, ttl))
	return res.Version, res.Entry, err
}

// Rename rewrites the prefix oldPrefix to newPrefix in field fieldIndex of
// every matching tuple (the DepSpace trigger extension for directory rename).
// It returns the number of rewritten tuples.
func (c *Client) Rename(ctx context.Context, fieldIndex int, oldPrefix, newPrefix string) (int, error) {
	res, err := c.do(ctx, Command{Op: opRename, FieldIndex: fieldIndex, OldPrefix: oldPrefix, NewPrefix: newPrefix})
	return res.Count, err
}
