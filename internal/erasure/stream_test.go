package erasure

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func TestSplitIntoMatchesSplit(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 7, 4096, 4099} {
		data := make([]byte, size)
		if _, err := rand.Read(data); err != nil {
			t.Fatal(err)
		}
		want, err := c.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		shardSize := c.ShardSize(size)
		if shardSize == 0 {
			shardSize = 1
		}
		// Dirty backing: SplitInto must overwrite every byte it hands out.
		backing := bytes.Repeat([]byte{0xEE}, c.TotalShards()*shardSize)
		got, err := c.SplitInto(data, backing)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("size %d: shard %d differs", size, i)
			}
		}
	}
	if _, err := c.SplitInto(make([]byte, 100), make([]byte, 10)); err == nil {
		t.Fatal("expected error for undersized backing")
	}
}

func TestReconstructDataIntoSkipsParity(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10_000)
	if _, err := rand.Read(data); err != nil {
		t.Fatal(err)
	}
	shards, err := c.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one data shard and one parity shard.
	shardSize := len(shards[0])
	shards[1] = nil
	shards[5] = nil
	scratch := make([]byte, shardSize)
	if err := c.ReconstructDataInto(shards, scratch); err != nil {
		t.Fatal(err)
	}
	if shards[5] != nil {
		t.Fatal("parity shard was rebuilt by ReconstructDataInto")
	}
	got := make([]byte, len(data))
	if err := c.JoinInto(got, shards, len(data)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch after data-only reconstruction")
	}
}

func TestJoinIntoErrors(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := c.Split([]byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.JoinInto(make([]byte, 4), shards, 11); err == nil {
		t.Fatal("expected error for undersized destination")
	}
	shards[0] = nil
	if err := c.JoinInto(make([]byte, 11), shards, 11); err != ErrTooFewShards {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}
