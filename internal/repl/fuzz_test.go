package repl

import (
	"bytes"
	"errors"
	"testing"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/wire"
)

// roundTrip runs one decoder over arbitrary bytes. A rejection must wrap
// wire.ErrStreamBroken, the one "reset the stream" signal. An accepted
// value must re-encode to bytes that decode to the same value; values
// compare by their encoding, which keeps float bits exact (NaN != NaN).
// Input bytes themselves need not match: uvarints accept non-minimal forms.
func roundTrip[T any](t *testing.T, name string, in []byte, dec func([]byte) (T, error), enc func(T) []byte) {
	t.Helper()
	v, err := dec(in)
	if err != nil {
		if !errors.Is(err, wire.ErrStreamBroken) {
			t.Fatalf("%s: rejection %v does not wrap wire.ErrStreamBroken", name, err)
		}
		return
	}
	canon := enc(v)
	v2, err := dec(canon)
	if err != nil {
		t.Fatalf("%s: re-encoded value does not decode: %v", name, err)
	}
	if again := enc(v2); !bytes.Equal(again, canon) {
		t.Fatalf("%s: round trip changed the value:\n%x\n%x", name, canon, again)
	}
}

// FuzzReplDecode sends arbitrary bytes to every replication decoder. None
// may panic, whatever a damaged or hostile primary or replica sends.
func FuzzReplDecode(f *testing.F) {
	var h blockstore.Hash
	h[0], h[31] = 0xAB, 0xCD
	f.Add(encodeGroup(&groupMsg{CSN: 42, Recs: [][]byte{[]byte("rec-one"), nil, []byte("model-rec")}}))
	f.Add(encodeResync(&resyncMsg{
		CSN:    99,
		Recs:   [][]byte{[]byte("create"), []byte("insert")},
		Models: []modelManifest{{Name: "Fraud-FC-32", Acc: 0.95, Manifest: []byte("TBMF-manifest")}},
	}))
	f.Add(encodeBlockReq([]blockstore.Hash{h, h}))
	f.Add(encodeBlockReq(nil))
	f.Add(encodeBlocks(&blocksMsg{Hashes: []blockstore.Hash{h}, Data: [][]byte{[]byte("payload")}}))
	f.Add(encodeHello(1234))
	f.Add(encodeHeartbeat(77))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		roundTrip(t, "group", in, decodeGroup, encodeGroup)
		roundTrip(t, "resync", in, decodeResync, encodeResync)
		roundTrip(t, "block request", in, decodeBlockReq, encodeBlockReq)
		roundTrip(t, "blocks", in, decodeBlocks, encodeBlocks)
		roundTrip(t, "hello", in, decodeHello, encodeHello)
		roundTrip(t, "heartbeat", in, decodeHeartbeat, encodeHeartbeat)
	})
}
