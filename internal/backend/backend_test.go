package backend

import (
	"math"
	"testing"
	"testing/quick"

	"tmo/internal/vclock"
)

const pageSize = 4096

func TestDeviceCatalogShape(t *testing.T) {
	// The catalog must reproduce the Fig. 5 envelope: endurance improves
	// monotonically across generations, and p99 read latency spans 9.3ms
	// down to 470us.
	if len(DeviceCatalog) != 7 {
		t.Fatalf("catalog has %d devices, want 7 (A-G)", len(DeviceCatalog))
	}
	for i := 1; i < len(DeviceCatalog); i++ {
		prev, cur := DeviceCatalog[i-1], DeviceCatalog[i]
		if cur.EndurancePTBW <= prev.EndurancePTBW {
			t.Errorf("endurance not improving %s->%s", prev.Model, cur.Model)
		}
		if cur.ReadP99 > prev.ReadP99 {
			t.Errorf("read p99 regressed %s->%s", prev.Model, cur.Model)
		}
	}
	if DeviceCatalog[0].ReadP99 != 9300*vclock.Microsecond {
		t.Errorf("oldest device p99 = %v, want 9.3ms", DeviceCatalog[0].ReadP99)
	}
	if DeviceCatalog[6].ReadP99 != 470*vclock.Microsecond {
		t.Errorf("newest device p99 = %v, want 470us", DeviceCatalog[6].ReadP99)
	}
}

func TestDeviceByModel(t *testing.T) {
	d, err := DeviceByModel("C")
	if err != nil || d.Model != "C" {
		t.Fatalf("DeviceByModel(C) = %v, %v", d, err)
	}
	if _, err := DeviceByModel("Z"); err == nil {
		t.Fatalf("DeviceByModel(Z) should fail")
	}
}

func TestSSDReadLatencyDistribution(t *testing.T) {
	spec, _ := DeviceByModel("C")
	dev := NewSSDDevice(spec, 1)
	now := vclock.Time(0)
	var lats []float64
	// Read at a low rate so queueing is negligible.
	for i := 0; i < 5000; i++ {
		lats = append(lats, float64(dev.Read(now)))
		now = now.Add(vclock.Millisecond)
	}
	// Median should be near the spec.
	var sum float64
	cnt := 0
	for _, l := range lats {
		if l <= float64(spec.ReadMedian) {
			cnt++
		}
		sum += l
	}
	frac := float64(cnt) / float64(len(lats))
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestSSDQueueingInflatesLatency(t *testing.T) {
	spec, _ := DeviceByModel("C")
	quiet := NewSSDDevice(spec, 2)
	busy := NewSSDDevice(spec, 2) // same RNG stream: identical base samples

	var quietSum, busySum float64
	nowQ, nowB := vclock.Time(0), vclock.Time(0)
	for i := 0; i < 2000; i++ {
		quietSum += float64(quiet.Read(nowQ))
		nowQ = nowQ.Add(10 * vclock.Millisecond) // 100 IOPS: idle
	}
	for i := 0; i < 2000; i++ {
		busySum += float64(busy.Read(nowB))
		nowB = nowB.Add(3 * vclock.Microsecond) // ~330k IOPS: above the 180k ceiling
	}
	if busySum <= quietSum*1.5 {
		t.Fatalf("saturated device not slower: busy=%v quiet=%v", busySum, quietSum)
	}
}

func TestQueueFactorBounds(t *testing.T) {
	if f := queueFactor(0, 1000); f != 1 {
		t.Fatalf("idle queue factor = %v", f)
	}
	if f := queueFactor(1e9, 1000); f > 10.001 {
		t.Fatalf("saturated queue factor = %v, want <= 10", f)
	}
	if f := queueFactor(100, 0); f != 1 {
		t.Fatalf("zero-capacity queue factor = %v", f)
	}
}

func TestSSDSwapStoreLoadFree(t *testing.T) {
	dev := NewSSDDevice(DeviceCatalog[2], 3)
	sw := NewSSDSwap(dev, 0)
	res, err := sw.Store(0, pageSize, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredBytes != pageSize || res.DeviceWrite != pageSize {
		t.Fatalf("SSD stores must be uncompressed: %+v", res)
	}
	if res.Latency != 0 {
		t.Fatalf("SSD store latency must be async (0), got %v", res.Latency)
	}
	st := sw.Stats()
	if st.StoredPages != 1 || st.StoredBytes != pageSize || st.WrittenBytes != pageSize {
		t.Fatalf("stats after store: %+v", st)
	}
	lr := sw.Load(vclock.Time(vclock.Second), res.Handle)
	if !lr.BlockIO {
		t.Fatalf("SSD load must be block IO")
	}
	if lr.Latency <= 0 {
		t.Fatalf("SSD load latency = %v", lr.Latency)
	}
	if st := sw.Stats(); st.StoredPages != 0 || st.StoredBytes != 0 {
		t.Fatalf("stats after load: %+v", st)
	}

	res2, _ := sw.Store(0, pageSize, 1.0)
	sw.Free(res2.Handle)
	if st := sw.Stats(); st.StoredPages != 0 {
		t.Fatalf("stats after free: %+v", st)
	}
	sw.Free(res2.Handle) // double free is a no-op
}

func TestSSDSwapCapacity(t *testing.T) {
	dev := NewSSDDevice(DeviceCatalog[2], 4)
	sw := NewSSDSwap(dev, 2*pageSize)
	if _, err := sw.Store(0, pageSize, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Store(0, pageSize, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Store(0, pageSize, 1); err != ErrFull {
		t.Fatalf("over-capacity store err = %v, want ErrFull", err)
	}
}

func TestSSDLoadUnknownHandlePanics(t *testing.T) {
	sw := NewSSDSwap(NewSSDDevice(DeviceCatalog[0], 5), 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for unknown handle")
		}
	}()
	sw.Load(0, 99)
}

func TestEnduranceAccounting(t *testing.T) {
	dev := NewSSDDevice(DeviceCatalog[0], 6) // 1 pTBW
	now := vclock.Time(0)
	for i := 0; i < 100; i++ {
		dev.Write(now, 1<<20) // 1 MiB each
		now = now.Add(vclock.Second)
	}
	if got := dev.WrittenBytes(); got != 100<<20 {
		t.Fatalf("written bytes = %d", got)
	}
	want := float64(100<<20) / 1e15
	if got := dev.EnduranceUsed(); math.Abs(got-want) > 1e-18 {
		t.Fatalf("endurance used = %v, want %v", got, want)
	}
	if r := dev.WriteByteRate(now); math.Abs(r-float64(1<<20))/float64(1<<20) > 0.35 {
		t.Fatalf("write byte rate = %v, want ~1MiB/s", r)
	}
}

func TestFilesystemReads(t *testing.T) {
	dev := NewSSDDevice(DeviceCatalog[2], 7)
	fs := NewFilesystem(dev)
	if fs.Device() != dev {
		t.Fatalf("Device() mismatch")
	}
	lat := fs.ReadPage(0)
	if lat <= 0 {
		t.Fatalf("read latency = %v", lat)
	}
	if fs.Reads() != 1 || dev.Reads() != 1 {
		t.Fatalf("read counters: fs=%d dev=%d", fs.Reads(), dev.Reads())
	}
}

func TestZswapStoreLoad(t *testing.T) {
	z := NewZswap(CodecZstd, AllocZsmalloc, 0, 8)
	res, err := z.Store(0, pageSize, 4.0) // Web-like 4x compressibility
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceWrite != 0 {
		t.Fatalf("zswap must not consume endurance: %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatalf("zswap store must pay compression latency")
	}
	// 4KiB at 4x with zsmalloc overhead 1.03 -> ~1054 bytes.
	want := int64(float64(pageSize) / 4.0 * AllocZsmalloc.Overhead)
	if res.StoredBytes != want {
		t.Fatalf("stored bytes = %d, want %d", res.StoredBytes, want)
	}
	if z.PoolBytes() != want {
		t.Fatalf("pool bytes = %d, want %d", z.PoolBytes(), want)
	}
	lr := z.Load(0, res.Handle)
	if lr.BlockIO {
		t.Fatalf("zswap load must not be block IO")
	}
	if lr.Latency <= 0 {
		t.Fatalf("zswap load latency = %v", lr.Latency)
	}
	if z.PoolBytes() != 0 {
		t.Fatalf("pool bytes after load = %d", z.PoolBytes())
	}
	if z.WriteRate(0) != 0 {
		t.Fatalf("zswap write rate must be 0")
	}
}

func TestZswapPoolLimit(t *testing.T) {
	z := NewZswap(CodecZstd, AllocZsmalloc, 3000, 9)
	if _, err := z.Store(0, pageSize, 2.0); err != nil { // ~2109 bytes
		t.Fatal(err)
	}
	if _, err := z.Store(0, pageSize, 2.0); err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if z.Rejected() != 1 {
		t.Fatalf("rejected = %d", z.Rejected())
	}
}

func TestZswapIncompressiblePage(t *testing.T) {
	// ML model data at ratio 1.0 should save nothing (stored >= page size).
	z := NewZswap(CodecZstd, AllocZsmalloc, 0, 10)
	res, err := z.Store(0, pageSize, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredBytes < pageSize {
		t.Fatalf("incompressible page stored %d < %d", res.StoredBytes, pageSize)
	}
}

func TestAllocatorPackingCaps(t *testing.T) {
	// A 10x-compressible page cannot exceed the allocator's packing cap.
	if got := AllocZbud.StoredSize(pageSize, 10); got < pageSize/2 {
		t.Fatalf("zbud stored %d, cap is page/2", got)
	}
	if got := AllocZ3fold.StoredSize(pageSize, 10); got < pageSize/3 {
		t.Fatalf("z3fold stored %d, cap is page/3", got)
	}
	// zsmalloc packs much deeper.
	if got := AllocZsmalloc.StoredSize(pageSize, 10); got >= pageSize/3 {
		t.Fatalf("zsmalloc stored %d, want < page/3", got)
	}
	// Ratio below 1 clamps to 1.
	if got := AllocZsmalloc.StoredSize(pageSize, 0.5); got < pageSize {
		t.Fatalf("sub-unity ratio stored %d < page size", got)
	}
}

func TestAllocatorRanking(t *testing.T) {
	// §5.1: zsmalloc gives the biggest savings, then z3fold, then zbud,
	// for well-compressible data.
	zs := AllocZsmalloc.StoredSize(pageSize, 4)
	z3 := AllocZ3fold.StoredSize(pageSize, 4)
	zb := AllocZbud.StoredSize(pageSize, 4)
	if !(zs < z3 && z3 < zb) {
		t.Fatalf("allocator ranking wrong: zsmalloc=%d z3fold=%d zbud=%d", zs, z3, zb)
	}
}

func TestCodecRanking(t *testing.T) {
	// §5.1: zstd compresses best; lz4/lzo decompress faster.
	if !(CodecZstd.RatioFactor > CodecLz4.RatioFactor && CodecZstd.RatioFactor > CodecLzo.RatioFactor) {
		t.Fatalf("zstd must have best ratio")
	}
	if !(CodecLz4.DecompressMedian < CodecZstd.DecompressMedian) {
		t.Fatalf("lz4 must decompress faster than zstd")
	}
}

func TestZswapP90LoadLatencyNear40us(t *testing.T) {
	// §2.5: "the p90 latency of a 4KB read from compressed memory is about
	// 40us" — verify the zstd model lands in that ballpark.
	z := NewZswap(CodecZstd, AllocZsmalloc, 0, 11)
	var lats []float64
	for i := 0; i < 4000; i++ {
		res, _ := z.Store(0, pageSize, 3)
		lr := z.Load(0, res.Handle)
		lats = append(lats, float64(lr.Latency))
	}
	// Count the fraction under 40us; should be around 0.9.
	n := 0
	for _, l := range lats {
		if l <= 40 {
			n++
		}
	}
	frac := float64(n) / float64(len(lats))
	if frac < 0.75 || frac > 0.99 {
		t.Fatalf("fraction of zswap loads <= 40us is %v, want ~0.9", frac)
	}
}

func TestCostTrendShape(t *testing.T) {
	trend := CostTrend()
	if len(trend) != 6 {
		t.Fatalf("%d generations, want 6", len(trend))
	}
	for i, p := range trend {
		if p.CompressedPct >= p.MemoryPct {
			t.Errorf("gen %d: compressed >= memory", i+1)
		}
		if p.SSDPct >= 1.0 {
			t.Errorf("gen %d: iso-capacity SSD cost %v >= 1%%", i+1, p.SSDPct)
		}
		if p.SSDPct >= p.CompressedPct {
			t.Errorf("gen %d: SSD not cheaper than compressed", i+1)
		}
	}
	if last := trend[len(trend)-1]; last.MemoryPct != 33 {
		t.Errorf("final DRAM share = %v, want 33%%", last.MemoryPct)
	}
	for i := 1; i < len(trend); i++ {
		if trend[i].MemoryPct <= trend[i-1].MemoryPct {
			t.Errorf("DRAM share must grow: gen %d", i+1)
		}
	}
	if trend[0].Generation != "Gen 1" {
		t.Errorf("generation name = %q", trend[0].Generation)
	}
}

// Property: backend stats never go negative and logical bytes always cover
// stored pages, under arbitrary store/load/free sequences.
func TestBackendStatsInvariant(t *testing.T) {
	type op struct {
		Ratio uint8
		Load  bool
	}
	check := func(b SwapBackend, ops []op) bool {
		var handles []Handle
		now := vclock.Time(0)
		for _, o := range ops {
			now = now.Add(vclock.Millisecond)
			if o.Load && len(handles) > 0 {
				h := handles[len(handles)-1]
				handles = handles[:len(handles)-1]
				b.Load(now, h)
			} else {
				ratio := 1 + float64(o.Ratio)/64.0
				res, err := b.Store(now, pageSize, ratio)
				if err == nil {
					handles = append(handles, res.Handle)
				}
			}
			st := b.Stats()
			if st.StoredPages < 0 || st.StoredBytes < 0 || st.LogicalBytes < 0 {
				return false
			}
			if st.StoredPages == 0 && (st.StoredBytes != 0 || st.LogicalBytes != 0) {
				return false
			}
			if int64(len(handles)) != st.StoredPages {
				return false
			}
		}
		return true
	}
	f := func(ops []op) bool {
		z := NewZswap(CodecZstd, AllocZsmalloc, 0, 12)
		s := NewSSDSwap(NewSSDDevice(DeviceCatalog[3], 13), 0)
		return check(z, ops) && check(s, ops)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
