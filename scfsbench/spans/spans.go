// Package spans is the benchmark's own tracing: a span recorder whose parent
// and operation identifiers ride a context.Context, and the interval
// arithmetic that turns the spans of one operation into a per-layer time
// budget. It knows nothing about scfs; the recording wrappers in package
// bench call it at the layer boundaries the benchmark can reach from outside.
package spans

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names the boundary a span was recorded at.
type Layer uint8

// The boundaries, outermost first. Op is the fsapi call the benchmark issues.
const (
	Op Layer = iota
	Coord
	Invoker
	Storage
	Cloud
	numLayers
)

var layerNames = [numLayers]string{"op", "coord", "invoker", "storage", "cloud"}

func (l Layer) String() string { return layerNames[l] }

// MarshalText makes the span file name layers instead of numbering them.
func (l Layer) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// Detached is the operation identifier of spans that arrived on a context
// with no operation on it: coalescer flushes, which run under their own
// context, and garbage collection, which the harness calls between rounds.
const Detached = 0

// Span is one recorded call. Start and End are nanoseconds since the
// recorder was created.
type Span struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	OpID    uint32 `json:"op"`
	Layer   Layer  `json:"layer"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Bytes   int64  `json:"bytes,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// Recorder keeps finished spans in memory. A nil *Recorder records nothing,
// so wrappers can stay in place on an untraced stack.
type Recorder struct {
	epoch time.Time

	nextID atomic.Uint32
	nextOp atomic.Uint32

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

type ctxKey struct{}

type ctxVal struct {
	op, parent uint32
}

// Active is a started span; End finishes and records it.
type Active struct {
	r    *Recorder
	span Span
}

// StartOp starts the root span of a new operation of the given class and
// returns a context carrying it.
func (r *Recorder) StartOp(ctx context.Context, class string) (context.Context, *Active) {
	if r == nil {
		return ctx, nil
	}
	op, id := r.nextOp.Add(1), r.nextID.Add(1)
	a := &Active{r: r, span: Span{ID: id, OpID: op, Layer: Op, Name: class, Start: int64(time.Since(r.epoch))}}
	return context.WithValue(ctx, ctxKey{}, ctxVal{op: op, parent: id}), a
}

// Start starts a span at a layer boundary. Its parent and operation come
// from ctx; a context carrying neither yields a Detached span.
func (r *Recorder) Start(ctx context.Context, layer Layer, name string) (context.Context, *Active) {
	if r == nil {
		return ctx, nil
	}
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	id := r.nextID.Add(1)
	a := &Active{r: r, span: Span{ID: id, Parent: v.parent, OpID: v.op, Layer: layer, Name: name, Start: int64(time.Since(r.epoch))}}
	return context.WithValue(ctx, ctxKey{}, ctxVal{op: v.op, parent: id}), a
}

// End records the span with the bytes it moved and how it ended.
func (a *Active) End(bytes int64, outcome string) {
	if a == nil {
		return
	}
	a.span.End = int64(time.Since(a.r.epoch))
	a.span.Bytes = bytes
	a.span.Outcome = outcome
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.span)
	a.r.mu.Unlock()
}

// Reset drops the spans recorded so far.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// Spans returns the spans recorded so far, in completion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes the spans as one JSON array.
func WriteJSON(w io.Writer, all []Span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(all)
}

// interval is a half-open stretch of time.
type interval struct{ lo, hi int64 }

// union returns the total length covered by the intervals, clipped to
// [lo, hi). Overlapping intervals — the per-cloud RPCs of one quorum fan-out —
// count once.
func union(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	cur := lo
	for _, v := range iv {
		if v.lo < cur {
			v.lo = cur
		}
		if v.hi > hi {
			v.hi = hi
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			cur = v.hi
		}
	}
	return total
}

// Budget is where one operation's wall time went, by the layer that was
// running. The four self times sum to Total. Invoker is the part of CoordSelf
// spent below the invoker boundary (consensus, or the local tuple space).
type Budget struct {
	Class     string
	Total     int64
	CoreSelf  int64
	CoordSelf int64
	DepSky    int64
	CloudWait int64
	Invoker   int64

	CoordCalls int
	CloudRPCs  int
	// Rounds is the longest chain of cloud RPCs under the operation in which
	// each starts after the previous one ended: the number of sequential
	// quorum round trips on its critical path.
	Rounds int
}

// Budgets groups spans by operation and computes each operation's budget.
// Detached spans belong to no operation and are skipped.
func Budgets(all []Span) []Budget {
	type group struct {
		root  *Span
		by    [numLayers][]interval
		coord int
		cloud int
	}
	groups := make(map[uint32]*group)
	for i := range all {
		s := &all[i]
		if s.OpID == Detached {
			continue
		}
		g := groups[s.OpID]
		if g == nil {
			g = &group{}
			groups[s.OpID] = g
		}
		if s.Layer == Op {
			g.root = s
			continue
		}
		g.by[s.Layer] = append(g.by[s.Layer], interval{s.Start, s.End})
		switch s.Layer {
		case Coord:
			g.coord++
		case Cloud:
			g.cloud++
		}
	}
	ids := make([]uint32, 0, len(groups))
	for id, g := range groups {
		if g.root != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Budget, 0, len(ids))
	for _, id := range ids {
		g := groups[id]
		lo, hi := g.root.Start, g.root.End
		join := func(layers ...Layer) []interval {
			var iv []interval
			for _, l := range layers {
				iv = append(iv, g.by[l]...)
			}
			return iv
		}
		cloud := union(join(Cloud), lo, hi)
		data := union(join(Storage, Cloud), lo, hi)
		below := union(join(Coord, Invoker, Storage, Cloud), lo, hi)
		out = append(out, Budget{
			Class:      g.root.Name,
			Total:      hi - lo,
			CoreSelf:   hi - lo - below,
			CoordSelf:  below - data,
			DepSky:     data - cloud,
			CloudWait:  cloud,
			Invoker:    union(join(Invoker), lo, hi),
			CoordCalls: g.coord,
			CloudRPCs:  g.cloud,
			Rounds:     chain(g.by[Cloud]),
		})
	}
	return out
}

// chain returns the size of the largest set of pairwise disjoint intervals,
// found greedily by earliest end.
func chain(iv []interval) int {
	sort.Slice(iv, func(i, j int) bool { return iv[i].hi < iv[j].hi })
	n := 0
	var end int64 = -1 << 62
	for _, v := range iv {
		if v.lo >= end {
			n++
			end = v.hi
		}
	}
	return n
}
