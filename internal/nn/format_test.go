package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tensorbase/internal/blockstore"
)

// The writers emit the same TBM1 bytes and TBMF manifests as when a conv
// layer's flag bit still chose an execution path: the SHA-256 of each zoo
// model's Save output and of its encoded manifest are pinned.
func TestZooFormatBytesPinned(t *testing.T) {
	for i, c := range []struct {
		build     func(*rand.Rand) *Model
		tbm, tbmf string
	}{
		{func(r *rand.Rand) *Model { return FraudFC(r, 32) },
			"e02d12b37f3f2ce765784841807e8fd3942f2c5c5496711f4aa80cd5c7780060", "5ced82dbef90708c9583201a1b09dcf6ce2217eec4331e075dd4028477c41293"},
		{EncoderFC,
			"cd53c17162d5c7d60e2e7689815709080dc64bdc764f0875933eb08425754ce3", "8c1e073a8c5a5359ed0f4818097f6a8ae1ff9616e1f41e73ca676077df44414d"},
		{func(r *rand.Rand) *Model { return Amazon14kFC(r, 512) },
			"135431a4812f62dbc9a1d5765d5a9f64a009a34357a3fd0858ed6650e8184745", "104128dfd986f607c2b045484a0ee3f9df5490370a855ba81ee612092e7704c9"},
		{DeepBenchConv1,
			"170f73acb11690595110f6b4827b9b1dbdb154addbb094349f95f6715f47d6f6", "986012ebe358a63ab3d53ec0309f4f50510f45ac590c347abbb00662c68b0fb8"},
		{func(r *rand.Rand) *Model { return LandCover(r, 20) },
			"d9f58cb29248ac683f0e65b552ff065bdc23a2d7a0093ab36b1ce5557b583665", "979ffc6db606e3ed3f4880105e76081a702fcecd3c04a1824ea6ed45f6fbff6b"},
		{func(r *rand.Rand) *Model { return BoschFC(r, 50) },
			"2b8be8bd4d3eb185b28458f8414e1578652eec70f89e7eddf7c48b06bfecf284", "36e871c7a12bace967b793713834f98f87a27b1a0b6fb627177a9619068b4cdf"},
		{func(r *rand.Rand) *Model { return CacheCNN(r, 8) },
			"3ae554f1c5ed1fc2914f486ddf9873fa9a51a16780aa64ec8753369198b81121", "92c862013275f2bd541e9df952214960c83df6eaafe6c87facf3607cce09c584"},
		{func(r *rand.Rand) *Model { return CacheFFNN(r, 64) },
			"f3f670cfc52b47768fe57df15fbb19f498caea46cff6885d74eca3bf216e5e84", "fdec0dfc6d50c96459e2a7c6af8fa1ca98695dab4bb91b73517ed120c464d621"},
	} {
		m := c.build(rand.New(rand.NewSource(int64(60 + i))))
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		mf, _, err := BlockModel(m, blockstore.New())
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.tbm {
			t.Errorf("%s: TBM1 sha256 %s, want %s", m.Name(), got, c.tbm)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(EncodeManifest(mf))); got != c.tbmf {
			t.Errorf("%s: TBMF sha256 %s, want %s", m.Name(), got, c.tbmf)
		}
	}
}

// A conv layer whose flag bit is set — the retired im2col flag — loads
// from a TBM1 file and from a TBMF manifest, and answers the bits the same
// model answers without it.
func TestConvFlagBitIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := MustModel("conv", []int{1, 6, 6, 3}, NewConv2D(rng, 8, 2, 2, 3))
	want := forwardBits(m, 62)

	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[len(raw)-1] != 0 {
		t.Fatalf("conv flag byte %d, want 0", raw[len(raw)-1])
	}
	raw[len(raw)-1] = 1 // the conv is the last layer, its flag the last byte
	fromTBM, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("TBM1 with the flag set: %v", err)
	}

	st := blockstore.New()
	mf, _, err := BlockModel(m, st)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Layers[0].Flag != 0 {
		t.Fatalf("manifest conv flag %d, want 0", mf.Layers[0].Flag)
	}
	mf.Layers[0].Flag = 1
	back, err := DecodeManifest(EncodeManifest(mf))
	if err != nil {
		t.Fatal(err)
	}
	fromTBMF, err := ModelFromManifest(back, st)
	if err != nil {
		t.Fatalf("TBMF with the flag set: %v", err)
	}
	for name, got := range map[string]*Model{"TBM1": fromTBM, "TBMF": fromTBMF} {
		have := forwardBits(got, 62)
		for i := range want {
			if math.Float32bits(have[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: output[%d] = %v, want %v", name, i, have[i], want[i])
			}
		}
	}
}
