package repl

import (
	"errors"
	"reflect"
	"testing"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/wire"
)

func TestGroupRoundTrip(t *testing.T) {
	g := &groupMsg{
		CSN:  42,
		Recs: [][]byte{[]byte("rec-one"), []byte("rec-two"), []byte("model-rec")},
	}
	got, err := decodeGroup(encodeGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("group round-trip:\nsent %+v\ngot  %+v", g, got)
	}
}

func TestGroupRejectsTrailingBytes(t *testing.T) {
	b := encodeGroup(&groupMsg{CSN: 1, Recs: [][]byte{[]byte("r")}})
	if _, err := decodeGroup(append(b, 0xEE)); !errors.Is(err, wire.ErrStreamBroken) {
		t.Fatalf("trailing bytes = %v, want wire.ErrStreamBroken", err)
	}
}

func TestResyncRoundTrip(t *testing.T) {
	m := &resyncMsg{
		CSN:  99,
		Recs: [][]byte{[]byte("create"), []byte("insert")},
		Models: []modelManifest{
			{Name: "Fraud-FC-32", Acc: 0.95, Manifest: []byte("TBMF-manifest")},
		},
	}
	got, err := decodeResync(encodeResync(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("resync round-trip:\nsent %+v\ngot  %+v", m, got)
	}
}

func TestResyncRejectsTruncation(t *testing.T) {
	b := encodeResync(&resyncMsg{CSN: 1, Models: []modelManifest{{Name: "m", Manifest: []byte("d")}}})
	for cut := 10; cut < len(b); cut += 3 {
		if _, err := decodeResync(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func TestBlockReqRoundTrip(t *testing.T) {
	var h1, h2 blockstore.Hash
	h1[0], h2[31] = 0xAB, 0xCD
	got, err := decodeBlockReq(encodeBlockReq([]blockstore.Hash{h1, h2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != h1 || got[1] != h2 {
		t.Fatalf("block request round-trip: %v", got)
	}
	// Empty requests are legal — a fully deduplicated replica sends one.
	if got, err := decodeBlockReq(encodeBlockReq(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty block request round-trip: (%v, %v)", got, err)
	}
	if _, err := decodeBlockReq(encodeBlockReq([]blockstore.Hash{h1})[:20]); !errors.Is(err, wire.ErrStreamBroken) {
		t.Fatalf("truncated block request = %v, want wire.ErrStreamBroken", err)
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	var h blockstore.Hash
	h[7] = 0x7E
	m := &blocksMsg{Hashes: []blockstore.Hash{h}, Data: [][]byte{[]byte("payload")}}
	got, err := decodeBlocks(encodeBlocks(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("blocks round-trip:\nsent %+v\ngot  %+v", m, got)
	}
	if _, err := decodeBlocks(append(encodeBlocks(m), 0xEE)); !errors.Is(err, wire.ErrStreamBroken) {
		t.Fatalf("trailing blocks bytes = %v, want wire.ErrStreamBroken", err)
	}
}

func TestHelloAndHeartbeatRoundTrip(t *testing.T) {
	csn, err := decodeHello(encodeHello(1234))
	if err != nil || csn != 1234 {
		t.Fatalf("hello round-trip = (%d, %v)", csn, err)
	}
	if _, err := decodeHello([]byte{msgHello, 1}); !errors.Is(err, wire.ErrStreamBroken) {
		t.Fatalf("short hello = %v", err)
	}
	hcsn, err := decodeHeartbeat(encodeHeartbeat(77))
	if err != nil || hcsn != 77 {
		t.Fatalf("heartbeat round-trip = (%d, %v)", hcsn, err)
	}
}
