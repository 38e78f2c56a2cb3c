package backend

import (
	"testing"

	"tmo/internal/vclock"
)

// flatSpec is a deterministic ad-hoc device: no IOPS ceilings (queue factor
// 1) so latency differences isolate the term under test.
var flatSpec = DeviceSpec{
	Model:      "t",
	ReadMedian: 100 * vclock.Microsecond, ReadP99: 400 * vclock.Microsecond,
	WriteMedian: 100 * vclock.Microsecond, WriteP99: 400 * vclock.Microsecond,
}

// TestWriteBatchBandwidthTerm pins the write latency model's bytes/bandwidth
// term across batch sizes: two devices sharing a seed (hence the same
// sampled service latency) must differ by exactly bytes/BW. Before the fix,
// Write ignored its byte count entirely — a 16-page batched writeback cost
// the same as one 4KiB page.
func TestWriteBatchBandwidthTerm(t *testing.T) {
	const bw = 1e9
	withBW := flatSpec
	withBW.WriteBWBytesPerSec = bw
	for _, pages := range []int{1, 4, 16, 64} {
		noTerm := NewSSDDevice(flatSpec, 42)
		term := NewSSDDevice(withBW, 42)
		bytes := int64(pages) * pageSize
		lat0 := noTerm.WriteBatch(0, pages, bytes)
		lat1 := term.WriteBatch(0, pages, bytes)
		want := vclock.Duration(float64(bytes) / bw * float64(vclock.Second))
		if got := lat1 - lat0; got != want {
			t.Errorf("%d pages: bandwidth term = %v, want %v", pages, got, want)
		}
	}
}

// TestWriteLatencyScalesWithBytes is the user-visible form of the same fix:
// on a catalog device (which has a finite write bandwidth), writing more
// bytes in one submission must cost more.
func TestWriteLatencyScalesWithBytes(t *testing.T) {
	spec, _ := DeviceByModel("C")
	small := NewSSDDevice(spec, 9)
	large := NewSSDDevice(spec, 9)
	latSmall := small.Write(0, pageSize)
	latLarge := large.Write(0, 64*pageSize)
	if latLarge <= latSmall {
		t.Fatalf("64-page write (%v) not costlier than 1-page write (%v)", latLarge, latSmall)
	}
	want := vclock.Duration(float64(63*pageSize) / spec.WriteBWBytesPerSec * float64(vclock.Second))
	if got := latLarge - latSmall; got != want {
		t.Fatalf("latency delta = %v, want transfer delta %v", got, want)
	}
}

// TestReadBatchChargesOneMeterOp: a clustered read is ONE operation against
// the device's IOPS meter, not one per page — the fix for readahead bursts
// inflating the queue factor seen by subsequent demand reads. Page-count
// accounting (Reads) stays identical.
func TestReadBatchChargesOneMeterOp(t *testing.T) {
	spec, _ := DeviceByModel("C")
	batched := NewSSDDevice(spec, 7)
	serial := NewSSDDevice(spec, 7)
	now := vclock.Time(0)
	for i := 0; i < 50; i++ {
		batched.ReadBatch(now, 8, 8*pageSize)
		for j := 0; j < 8; j++ {
			serial.Read(now)
		}
		now = now.Add(10 * vclock.Millisecond)
	}
	if batched.Reads() != serial.Reads() {
		t.Fatalf("page accounting diverged: batched %d, serial %d", batched.Reads(), serial.Reads())
	}
	rb, rs := batched.ReadRate(now), serial.ReadRate(now)
	if rb <= 0 || rs <= 0 {
		t.Fatalf("meters idle: batched %v serial %v", rb, rs)
	}
	// 8-page batches should register ~1/8th the ops of per-page reads.
	if rb*4 > rs {
		t.Fatalf("batched meter rate %.0f ops/s vs serial %.0f: batch must be one op on the meter", rb, rs)
	}
}

// TestBatchPaysInjectedStallOnce: N reads issued during a chaos stall window
// used to each pay the full remainder; a batched submission pays it once.
func TestBatchPaysInjectedStallOnce(t *testing.T) {
	spec, _ := DeviceByModel("C")
	const stall = 50 * vclock.Millisecond
	now := vclock.Time(vclock.Second)
	mk := func() (*SSDDevice, *TierChain, []Handle) {
		dev := NewSSDDevice(spec, 11)
		sw := ssdChain(dev, bigSwap, 0)
		hs := make([]Handle, 8)
		for i := range hs {
			r, err := storeOne(sw, 0, pageSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = r.Handle
		}
		dev.InjectStall(now, stall)
		return dev, sw, hs
	}

	_, swB, hsB := mk()
	batched := swB.LoadBatch(now, hsB).Latency

	_, swS, hsS := mk()
	serial := loadEach(swS, now, hsS).Latency

	if serial < 8*stall {
		t.Fatalf("per-page loads paid %v, expected each of 8 to wait out the %v remainder", serial, stall)
	}
	if batched >= 2*stall {
		t.Fatalf("batched load paid %v — the stall remainder must be charged once, not per page", batched)
	}
	if batched <= stall {
		t.Fatalf("batched load paid %v, must include the full %v remainder", batched, stall)
	}
}

// TestSSDLoadBatchAmortizesFixedCost: one clustered submission beats the
// same pages loaded one at a time, because seek/queue cost is paid once.
func TestSSDLoadBatchAmortizesFixedCost(t *testing.T) {
	spec, _ := DeviceByModel("C")
	mk := func() *TierChain {
		return ssdChain(NewSSDDevice(spec, 21), bigSwap, 0)
	}
	swB, swS := mk(), mk()
	var hsB, hsS []Handle
	for i := 0; i < 8; i++ {
		rb, _ := storeOne(swB, 0, pageSize, 1)
		rs, _ := storeOne(swS, 0, pageSize, 1)
		hsB, hsS = append(hsB, rb.Handle), append(hsS, rs.Handle)
	}
	now := vclock.Time(vclock.Second)
	batched := swB.LoadBatch(now, hsB)
	if !batched.BlockIO {
		t.Fatalf("SSD batch load must report block IO")
	}
	serial := loadEach(swS, now, hsS)
	if batched.Latency >= serial.Latency {
		t.Fatalf("batched cluster load %v not cheaper than serial %v", batched.Latency, serial.Latency)
	}
	if st := swB.Stats(); st.StoredPages != 0 || st.TotalReads != 8 {
		t.Fatalf("batch load released wrong state: %+v", st)
	}
}

// TestZswapBatchAmortizesCodecOverhead: with twin pools on one seed, the
// batched load draws the same per-page samples but discounts the tail, so it
// is strictly cheaper than the serial sum; store batches likewise.
func TestZswapBatchAmortizesCodecOverhead(t *testing.T) {
	mk := func() *TierChain { return zswapChain(bigSwap, 5) }
	zb, zs := mk(), mk()
	var hsB, hsS []Handle
	for i := 0; i < 8; i++ {
		rb, _ := storeOne(zb, 0, pageSize, 2)
		rs, _ := storeOne(zs, 0, pageSize, 2)
		hsB, hsS = append(hsB, rb.Handle), append(hsS, rs.Handle)
	}
	batched := zb.LoadBatch(0, hsB)
	serial := loadEach(zs, 0, hsS)
	if batched.BlockIO {
		t.Fatalf("zswap batch load must not report block IO")
	}
	if batched.Latency >= serial.Latency {
		t.Fatalf("batched zswap load %v not cheaper than serial %v", batched.Latency, serial.Latency)
	}

	zb2, zs2 := zswapChain(bigSwap, 6), zswapChain(bigSwap, 6)
	reqs := make([]StoreReq, 8)
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 2}
	}
	out := make([]StoreResult, 8)
	n, err := zb2.StoreBatch(0, reqs, out)
	if n != 8 || err != nil {
		t.Fatalf("StoreBatch = %d, %v", n, err)
	}
	var batchedStore vclock.Duration
	for _, r := range out[:n] {
		batchedStore += r.Latency
	}
	var serialStore vclock.Duration
	for i := 0; i < 8; i++ {
		r, _ := storeOne(zs2, 0, pageSize, 2)
		serialStore += r.Latency
	}
	if batchedStore >= serialStore {
		t.Fatalf("batched zswap store %v not cheaper than serial %v", batchedStore, serialStore)
	}
}

// TestStoreBatchStoresPrefixOnFull: a batch that exhausts capacity reports
// how many pages fit and stores exactly that prefix.
func TestStoreBatchStoresPrefixOnFull(t *testing.T) {
	spec, _ := DeviceByModel("C")
	sw := ssdChain(NewSSDDevice(spec, 13), 5*pageSize, 0)
	reqs := make([]StoreReq, 8)
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 1}
	}
	out := make([]StoreResult, 8)
	n, err := sw.StoreBatch(0, reqs, out)
	if n != 5 || err != ErrFull {
		t.Fatalf("StoreBatch = %d, %v; want 5, ErrFull", n, err)
	}
	if st := sw.Stats(); st.StoredPages != 5 {
		t.Fatalf("stored pages = %d, want the 5-page prefix", st.StoredPages)
	}
	for i := 0; i < n; i++ {
		if out[i].StoredBytes != pageSize {
			t.Fatalf("result %d not filled: %+v", i, out[i])
		}
	}
}

// TestWritebackDeferredUntilDrain: stores enqueue; device writes land only
// as the queue drains on the virtual clock.
func TestWritebackDeferredUntilDrain(t *testing.T) {
	spec, _ := DeviceByModel("C")
	dev := NewSSDDevice(withWriteIOPS(spec, 100), 17) // one submission per 10ms
	sw := ssdChain(dev, bigSwap, 0)
	for i := 0; i < 4; i++ {
		r, err := storeOne(sw, 0, pageSize, 1)
		if err != nil || r.Latency != 0 {
			t.Fatalf("store %d within depth: %v, stall %v", i, err, r.Latency)
		}
	}
	if dev.WrittenBytes() >= 4*pageSize {
		t.Fatalf("all writes landed at store time; queue is not deferring")
	}
	if sw.SSD().wb.depth() == 0 {
		t.Fatalf("queue empty right after stores")
	}
	sw.DrainWriteback(vclock.Time(vclock.Second))
	if got := dev.WrittenBytes(); got != 4*pageSize {
		t.Fatalf("after drain, device saw %d bytes, want %d", got, 4*pageSize)
	}
	if sw.SSD().wb.depth() != 0 {
		t.Fatalf("queue depth %d after full drain", sw.SSD().wb.depth())
	}
}

// TestWritebackBackpressureStallsReclaimer: pushing past the queue depth
// returns a positive stall — the reclaim-side backpressure that feeds PSI.
func TestWritebackBackpressureStallsReclaimer(t *testing.T) {
	spec, _ := DeviceByModel("C")
	dev := NewSSDDevice(withWriteIOPS(spec, 10), 19) // 100ms per submission
	sw := ssdChain(dev, bigSwap, 2)
	var stalled bool
	for i := 0; i < 6; i++ {
		r, err := storeOne(sw, 0, pageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Latency > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Fatalf("six stores into a depth-2 queue at 10 IOPS never stalled")
	}
}

// TestWritebackStallBacksUpQueue: an injected device stall gates the drain
// schedule, so a frozen device converts into reclaim backpressure.
func TestWritebackStallBacksUpQueue(t *testing.T) {
	spec, _ := DeviceByModel("C")
	dev := NewSSDDevice(withWriteIOPS(spec, 1000), 23)
	sw := ssdChain(dev, bigSwap, 2)
	now := vclock.Time(vclock.Second)
	dev.InjectStall(now, 500*vclock.Millisecond)
	var stall vclock.Duration
	for i := 0; i < 4; i++ {
		r, err := storeOne(sw, now, pageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		stall += r.Latency
	}
	// At 1000 IOPS the queue would absorb 4 stores without breaking a
	// sweat; only the frozen device can explain a backpressure stall that
	// spans the stall window.
	if stall < 400*vclock.Millisecond {
		t.Fatalf("backpressure during a 500ms device stall totalled %v; queue is not gated on the stall", stall)
	}
}

// TestTieredLoadBatchPartitionsTiers: a cluster split across pool and SSD
// loads each tier's share in one submission; block IO is reported iff the
// SSD served part of it.
func TestTieredLoadBatchPartitionsTiers(t *testing.T) {
	spec, _ := DeviceByModel("C")
	mkChain := func() *TierChain {
		return NewTierChain(
			DefaultChainSpecs(256*pageSize, 1<<30),
			NewSSDDevice(spec, 4), 0, 3)
	}
	tr := mkChain()
	var hs []Handle
	// Compressible pages land in the pool; incompressible skip its
	// admission threshold and go direct to SSD.
	for i := 0; i < 4; i++ {
		r, err := storeOne(tr, 0, pageSize, 3)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, r.Handle)
	}
	for i := 0; i < 4; i++ {
		r, err := storeOne(tr, 0, pageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, r.Handle)
	}
	if tr.AdmitSkips() != 4 {
		t.Fatalf("admission skips = %d, want 4", tr.AdmitSkips())
	}
	if st := tr.TierStats(1); st.StoredPages != 4 {
		t.Fatalf("SSD tier holds %d pages, want 4", st.StoredPages)
	}
	res := tr.LoadBatch(vclock.Time(vclock.Second), hs)
	if !res.BlockIO {
		t.Fatalf("mixed batch with SSD pages must report block IO")
	}
	if st := tr.Stats(); st.StoredPages != 0 {
		t.Fatalf("batch load left %d pages behind", st.StoredPages)
	}

	// A pool-only batch has no block IO.
	tr2 := mkChain()
	var warmOnly []Handle
	for i := 0; i < 4; i++ {
		r, _ := storeOne(tr2, 0, pageSize, 3)
		warmOnly = append(warmOnly, r.Handle)
	}
	if res := tr2.LoadBatch(vclock.Time(vclock.Second), warmOnly); res.BlockIO {
		t.Fatalf("pool-only batch must not report block IO")
	}
}

// TestNVMBatchMatchesOnePageBatches: NVM page moves have no fixed cost to
// amortise, so a batch must behave exactly like the same pages submitted as
// one-page batches — same handles, same summed latency.
func TestNVMBatchMatchesOnePageBatches(t *testing.T) {
	nvmA, nvmB := nvmChain(bigSwap, 8), nvmChain(bigSwap, 8)
	reqs := []StoreReq{{PageBytes: pageSize, CompressRatio: 1}, {PageBytes: pageSize, CompressRatio: 1}}
	out := make([]StoreResult, 2)
	if n, err := nvmA.StoreBatch(0, reqs, out); n != 2 || err != nil {
		t.Fatalf("nvm StoreBatch = %d, %v", n, err)
	}
	rb1, _ := storeOne(nvmB, 0, pageSize, 1)
	rb2, _ := storeOne(nvmB, 0, pageSize, 1)
	if out[0] != rb1 || out[1] != rb2 {
		t.Fatalf("store batch %+v diverged from one-page batches %+v, %+v", out, rb1, rb2)
	}
	lb := nvmA.LoadBatch(0, []Handle{out[0].Handle, out[1].Handle})
	if each := loadEach(nvmB, 0, []Handle{rb1.Handle, rb2.Handle}); lb != each {
		t.Fatalf("nvm batch load %+v != one-page loads %+v", lb, each)
	}
}

// TestSubstratesRequirePositiveCapacity: every substrate is sized, a lone
// tier too; none has an unbounded mode.
func TestSubstratesRequirePositiveCapacity(t *testing.T) {
	dev := NewSSDDevice(DeviceCatalog[2], 3)
	for name, mk := range map[string]func(){
		"zswap": func() { zswapChain(0, 1) },
		"ssd":   func() { ssdChain(dev, 0, 0) },
		"nvm":   func() { nvmChain(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero capacity accepted", name)
				}
			}()
			mk()
		}()
	}
}
