package depspace

import (
	"fmt"

	"scfs/internal/smr"
)

// Group is DepSpace deployed as the paper runs it: four in-process replicas
// of a batched tuple space, ordered by BFT state machine replication (n = 4,
// f = 1 Byzantine), reached through one pipelined smr client
// (smr.DefaultMaxInflight invocations outstanding) behind a coalescer that
// folds concurrent commands into batched invocations.
type Group struct {
	// Invoker submits commands to the group; wrap it with NewClient.
	Invoker Invoker
	// Replicas are the group's members, indexed by replica ID; replica 0
	// leads view 0.
	Replicas []*smr.Replica
	// Net carries every message of the group, so tests can delay or cut it.
	Net *smr.Network

	client *smr.Client
}

// NewGroup starts a replicated group whose client identifies itself to the
// replicas as clientID.
func NewGroup(clientID string) (*Group, error) {
	cfg := smr.Config{ReplicaIDs: []int{0, 1, 2, 3}, Model: smr.ByzantineFaults}
	net := smr.NewNetwork()
	g := &Group{Net: net, client: smr.NewClient(clientID, cfg, net)}
	g.Invoker = smr.NewCoalescer(g.client)
	for _, id := range cfg.ReplicaIDs {
		r, err := smr.NewReplica(id, cfg, smr.NewBatchApplication(NewSpace()), net)
		if err != nil {
			g.Stop()
			return nil, fmt.Errorf("depspace: starting replica %d: %w", id, err)
		}
		r.Start()
		g.Replicas = append(g.Replicas, r)
	}
	return g, nil
}

// Stop closes the client, stops the replicas and shuts the network down,
// failing any invocation still in flight. Later calls do nothing.
func (g *Group) Stop() {
	g.client.Close()
	for _, r := range g.Replicas {
		r.Stop()
	}
	g.Net.Close()
}
