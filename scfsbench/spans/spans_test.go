package spans

import (
	"context"
	"testing"
)

// TestBudgetSelfTime checks interval-union self time on a synthetic tree:
// an operation with a coordination call, then a storage call whose four
// cloud RPCs overlap (a quorum fan-out, the last one a straggler that ends
// after the storage call), then a second wave of RPCs; plus a detached span.
func TestBudgetSelfTime(t *testing.T) {
	all := []Span{
		{ID: 1, OpID: 1, Layer: Op, Name: "write_small", Start: 0, End: 1000},
		{ID: 2, Parent: 1, OpID: 1, Layer: Coord, Name: "get", Start: 100, End: 200},
		{ID: 3, Parent: 2, OpID: 1, Layer: Invoker, Name: "invoke", Start: 120, End: 180},
		{ID: 4, Parent: 1, OpID: 1, Layer: Storage, Name: "write", Start: 300, End: 900},
		// First wave: overlapping children cover 350..500 once, not four times.
		{ID: 5, Parent: 4, OpID: 1, Layer: Cloud, Name: "get", Start: 350, End: 450},
		{ID: 6, Parent: 4, OpID: 1, Layer: Cloud, Name: "get", Start: 350, End: 480},
		{ID: 7, Parent: 4, OpID: 1, Layer: Cloud, Name: "get", Start: 360, End: 500},
		{ID: 8, Parent: 4, OpID: 1, Layer: Cloud, Name: "get", Start: 360, End: 470},
		// Second wave, with a straggler that outlives the operation.
		{ID: 9, Parent: 4, OpID: 1, Layer: Cloud, Name: "put", Start: 600, End: 800},
		{ID: 10, Parent: 4, OpID: 1, Layer: Cloud, Name: "put", Start: 610, End: 1200},
		// A coalescer flush: no operation on its context.
		{ID: 11, OpID: Detached, Layer: Invoker, Name: "consensus", Start: 0, End: 5000},
	}
	got := Budgets(all)
	if len(got) != 1 {
		t.Fatalf("got %d budgets, want 1 (the detached span belongs to no operation)", len(got))
	}
	b := got[0]
	want := Budget{
		Class:      "write_small",
		Total:      1000,
		CloudWait:  150 + 400, // 350..500 and 600..1000 (clipped to the operation)
		DepSky:     700 - 550, // storage 300..900 joined with cloud to 1000, minus cloud
		CoordSelf:  100,
		Invoker:    60,
		CoreSelf:   1000 - 100 - 700,
		CoordCalls: 1,
		CloudRPCs:  6,
		Rounds:     2,
	}
	if b != want {
		t.Errorf("budget\n got %+v\nwant %+v", b, want)
	}
	if sum := b.CoreSelf + b.CoordSelf + b.DepSky + b.CloudWait; sum != b.Total {
		t.Errorf("self times sum to %d, want the operation's %d", sum, b.Total)
	}
}

func TestRecorderContext(t *testing.T) {
	r := NewRecorder()
	ctx, op := r.StartOp(context.Background(), "stat")
	cctx, c := r.Start(ctx, Coord, "get")
	_, i := r.Start(cctx, Invoker, "invoke")
	i.End(10, "ok")
	c.End(0, "ok")
	op.End(0, "ok")
	_, d := r.Start(context.Background(), Invoker, "consensus")
	d.End(0, "ok")

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	inv, crd, root, det := spans[0], spans[1], spans[2], spans[3]
	if inv.Parent != crd.ID || crd.Parent != root.ID || root.Parent != 0 {
		t.Errorf("parents do not follow the context: %+v", spans)
	}
	if inv.OpID != root.OpID || crd.OpID != root.OpID || root.OpID == Detached {
		t.Errorf("spans of one operation do not share its id: %+v", spans)
	}
	if det.OpID != Detached {
		t.Errorf("a span on a bare context got operation %d, want Detached", det.OpID)
	}

	var none *Recorder
	ctx2, a := none.StartOp(context.Background(), "stat")
	a.End(0, "ok")
	if ctx2 != context.Background() || none.Spans() != nil {
		t.Error("a nil recorder must record nothing and leave the context alone")
	}
}
