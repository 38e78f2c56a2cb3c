package backend

import (
	"testing"

	"tmo/internal/vclock"
)

func BenchmarkZswapStoreLoad(b *testing.B) {
	z := NewZswap(CodecZstd, AllocZsmalloc, 0, 91)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := z.Store(vclock.Time(i), pageSize, 3)
		if err != nil {
			b.Fatal(err)
		}
		z.Load(vclock.Time(i), res.Handle)
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
	tr := NewTierChain(DefaultChainSpecs(64<<20, 1<<30), NewSSDDevice(DeviceCatalog[2], 94), 93)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio := 3.0
		if i%3 == 0 {
			ratio = 1.1 // a third of the traffic routes to flash
		}
		res, err := tr.Store(vclock.Time(i), pageSize, ratio)
		if err != nil {
			b.Fatal(err)
		}
		tr.Load(vclock.Time(i), res.Handle)
	}
}
