package backend

import (
	"testing"

	"tmo/internal/vclock"
)

func BenchmarkZswapStoreLoad(b *testing.B) {
	z := zswapChain(bigSwap, 91)
	req := []StoreReq{{PageBytes: pageSize, CompressRatio: 3}}
	out := make([]StoreResult, 1)
	hs := make([]Handle, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.StoreBatch(vclock.Time(i), req, out); err != nil {
			b.Fatal(err)
		}
		hs[0] = out[0].Handle
		z.LoadBatch(vclock.Time(i), hs)
	}
}

func BenchmarkSSDRead(b *testing.B) {
	dev := NewSSDDevice(DeviceCatalog[2], 92)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Read(vclock.Time(i) * vclock.Time(vclock.Millisecond))
	}
}

func BenchmarkTieredStoreLoad(b *testing.B) {
	tr := NewTierChain(DefaultChainSpecs(64<<20, 1<<30), NewSSDDevice(DeviceCatalog[2], 94), 0, 93)
	req := make([]StoreReq, 1)
	out := make([]StoreResult, 1)
	hs := make([]Handle, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio := 3.0
		if i%3 == 0 {
			ratio = 1.1 // a third of the traffic routes to flash
		}
		req[0] = StoreReq{PageBytes: pageSize, CompressRatio: ratio}
		if _, err := tr.StoreBatch(vclock.Time(i), req, out); err != nil {
			b.Fatal(err)
		}
		hs[0] = out[0].Handle
		tr.LoadBatch(vclock.Time(i), hs)
	}
}
