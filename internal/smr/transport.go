package smr

import (
	"sync"
	"time"
)

// Transport moves protocol messages between replicas and back to clients. The
// only implementation is the in-memory Network below: there is no socket
// transport and no server binary, and messages are unauthenticated, which is
// sound only while every party shares one process.
type Transport interface {
	// SendToReplica delivers a message to one replica (best effort).
	SendToReplica(id int, m message)
	// Broadcast delivers a message to every replica except the sender
	// (identified by m.From when it is a replica). A replica's loopback does
	// not traverse the network: replicas process their own copy of a
	// broadcast synchronously and reliably (Replica.broadcast), because a
	// protocol vote that can be dropped on the way to its own caster breaks
	// quorum accounting in ways no retransmission repairs. Client broadcasts
	// (From < 0) go to every replica.
	Broadcast(m message)
	// SendToClient delivers a reply to a client by ID (best effort).
	SendToClient(clientID string, r Reply)
}

// Network is an in-memory transport connecting a replica group and its
// clients. It supports fault injection: disconnecting replicas, dropping a
// fraction of messages, and adding delivery delay.
type Network struct {
	mu           sync.Mutex
	replicas     map[int]chan message
	clients      map[string]chan Reply
	disconnected map[int]bool
	delay        time.Duration
	closed       bool
}

var _ Transport = (*Network)(nil)

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		replicas:     make(map[int]chan message),
		clients:      make(map[string]chan Reply),
		disconnected: make(map[int]bool),
	}
}

// registerReplica attaches a replica inbox to the network.
func (n *Network) registerReplica(id int, inbox chan message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replicas[id] = inbox
}

// RegisterClient attaches a client inbox and returns it.
func (n *Network) RegisterClient(clientID string) chan Reply {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Sized for a full pipelining window of replies from every replica, with
	// headroom for re-driven duplicates; overflow is dropped and repaired by
	// client retransmission against the replicas' reply records.
	ch := make(chan Reply, 1024)
	n.clients[clientID] = ch
	return ch
}

// UnregisterClient detaches a client inbox.
func (n *Network) UnregisterClient(clientID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.clients, clientID)
}

// Disconnect isolates a replica: messages to and from it are dropped.
func (n *Network) Disconnect(id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.disconnected[id] = true
}

// Reconnect restores a previously disconnected replica.
func (n *Network) Reconnect(id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.disconnected, id)
}

// SetDelay adds a fixed delivery delay to every message (simulated WAN).
func (n *Network) SetDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = d
}

// Close shuts the network down; subsequent sends are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

func (n *Network) deliverReplica(id int, m message, delay time.Duration) {
	send := func() {
		n.mu.Lock()
		ch, ok := n.replicas[id]
		blocked := n.disconnected[id] || n.disconnected[m.From] || n.closed
		n.mu.Unlock()
		if !ok || blocked {
			return
		}
		select {
		case ch <- m:
		default:
			// Inbox full: drop. The protocols tolerate message loss via
			// retransmission at the client and leader timeouts.
		}
	}
	if delay > 0 {
		time.AfterFunc(delay, send)
		return
	}
	send()
}

// SendToReplica implements Transport.
func (n *Network) SendToReplica(id int, m message) {
	n.mu.Lock()
	delay := n.delay
	n.mu.Unlock()
	n.deliverReplica(id, m, delay)
}

// Broadcast implements Transport.
func (n *Network) Broadcast(m message) {
	n.mu.Lock()
	ids := make([]int, 0, len(n.replicas))
	for id := range n.replicas {
		ids = append(ids, id)
	}
	delay := n.delay
	n.mu.Unlock()
	for _, id := range ids {
		if m.From >= 0 && id == m.From {
			continue // replica loopback is handled locally, not via the network
		}
		n.deliverReplica(id, m, delay)
	}
}

// SendToClient implements Transport.
func (n *Network) SendToClient(clientID string, r Reply) {
	n.mu.Lock()
	ch, ok := n.clients[clientID]
	closed := n.closed
	n.mu.Unlock()
	if !ok || closed {
		return
	}
	select {
	case ch <- r:
	default:
	}
}
