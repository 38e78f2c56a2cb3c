package backend

import (
	"fmt"
	"math/rand/v2"

	"tmo/internal/dist"
	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// DeviceSpec describes one SSD model in the fleet. The catalog below
// parameterises the seven device generations of the paper's Fig. 5.
type DeviceSpec struct {
	// Model is the device's catalog letter, "A" (oldest) through "G".
	Model string
	// EndurancePTBW is the rated write endurance in petabytes written.
	EndurancePTBW float64
	// ReadIOPS and WriteIOPS are the device's sustained operation ceilings.
	ReadIOPS, WriteIOPS float64
	// ReadBWBytesPerSec and WriteBWBytesPerSec are the device's sequential
	// transfer bandwidths; a batched (clustered) submission pays its fixed
	// per-op cost once plus bytes/bandwidth. Zero disables the transfer
	// term (ad-hoc test specs behave as infinitely fast at moving bytes).
	ReadBWBytesPerSec, WriteBWBytesPerSec float64
	// ReadMedian/ReadP99 parameterise the read-latency distribution.
	ReadMedian, ReadP99 vclock.Duration
	// WriteMedian/WriteP99 parameterise the write-latency distribution.
	WriteMedian, WriteP99 vclock.Duration
}

// DeviceCatalog lists the fleet's SSD generations, A (oldest, slowest) to G
// (newest). The shape follows Fig. 5: endurance improves steadily across
// generations, IOPS are comparatively stable, and p99 read latency spans
// 9.3ms down to 470us. Device B is the "slow SSD" and device C the "fast
// SSD" of the Fig. 12 experiment.
var DeviceCatalog = []DeviceSpec{
	{Model: "A", EndurancePTBW: 1.0, ReadIOPS: 60e3, WriteIOPS: 15e3,
		ReadBWBytesPerSec: 450e6, WriteBWBytesPerSec: 350e6,
		ReadMedian: 1800 * vclock.Microsecond, ReadP99: 9300 * vclock.Microsecond,
		WriteMedian: 2500 * vclock.Microsecond, WriteP99: 12 * vclock.Millisecond},
	{Model: "B", EndurancePTBW: 1.8, ReadIOPS: 90e3, WriteIOPS: 25e3,
		ReadBWBytesPerSec: 800e6, WriteBWBytesPerSec: 600e6,
		ReadMedian: 1100 * vclock.Microsecond, ReadP99: 5200 * vclock.Microsecond,
		WriteMedian: 1600 * vclock.Microsecond, WriteP99: 8 * vclock.Millisecond},
	{Model: "C", EndurancePTBW: 3.5, ReadIOPS: 180e3, WriteIOPS: 55e3,
		ReadBWBytesPerSec: 1.8e9, WriteBWBytesPerSec: 1.2e9,
		ReadMedian: 160 * vclock.Microsecond, ReadP99: 640 * vclock.Microsecond,
		WriteMedian: 420 * vclock.Microsecond, WriteP99: 2100 * vclock.Microsecond},
	{Model: "D", EndurancePTBW: 4.5, ReadIOPS: 260e3, WriteIOPS: 70e3,
		ReadBWBytesPerSec: 2.2e9, WriteBWBytesPerSec: 1.5e9,
		ReadMedian: 145 * vclock.Microsecond, ReadP99: 590 * vclock.Microsecond,
		WriteMedian: 380 * vclock.Microsecond, WriteP99: 1800 * vclock.Microsecond},
	{Model: "E", EndurancePTBW: 6.0, ReadIOPS: 350e3, WriteIOPS: 90e3,
		ReadBWBytesPerSec: 2.8e9, WriteBWBytesPerSec: 1.9e9,
		ReadMedian: 135 * vclock.Microsecond, ReadP99: 540 * vclock.Microsecond,
		WriteMedian: 340 * vclock.Microsecond, WriteP99: 1400 * vclock.Microsecond},
	{Model: "F", EndurancePTBW: 8.0, ReadIOPS: 450e3, WriteIOPS: 110e3,
		ReadBWBytesPerSec: 3.2e9, WriteBWBytesPerSec: 2.2e9,
		ReadMedian: 125 * vclock.Microsecond, ReadP99: 500 * vclock.Microsecond,
		WriteMedian: 300 * vclock.Microsecond, WriteP99: 1100 * vclock.Microsecond},
	{Model: "G", EndurancePTBW: 10.0, ReadIOPS: 550e3, WriteIOPS: 140e3,
		ReadBWBytesPerSec: 3.5e9, WriteBWBytesPerSec: 2.8e9,
		ReadMedian: 118 * vclock.Microsecond, ReadP99: 470 * vclock.Microsecond,
		WriteMedian: 280 * vclock.Microsecond, WriteP99: 900 * vclock.Microsecond},
}

// DeviceByModel returns the catalog spec with the given letter.
func DeviceByModel(model string) (DeviceSpec, error) {
	for _, d := range DeviceCatalog {
		if d.Model == model {
			return d, nil
		}
	}
	return DeviceSpec{}, fmt.Errorf("backend: unknown SSD model %q", model)
}

// SSDDevice simulates one physical NVMe SSD. It is shared by everything on
// the host that performs block IO: the swap partition and the filesystem
// both issue reads and writes against the same device, so file refaults and
// swap-ins contend for the same IOPS — the coupling that makes the paper's
// Fig. 13 IO-pressure analysis possible.
//
// Latency model: per-IO service time is drawn from a log-normal fitted to
// the spec's median/p99, then inflated by a queueing factor 1/(1-rho) as the
// recent IOPS approach the device ceiling. Writes consume endurance, which
// Senpai's write-regulation mechanism monitors.
type SSDDevice struct {
	Spec DeviceSpec

	rng        *rand.Rand
	readLat    dist.Sampler
	writeLat   dist.Sampler
	readMeter  *metrics.RateMeter
	writeMeter *metrics.RateMeter // IOPS
	byteMeter  *metrics.RateMeter // written bytes/s

	reads, writes int64
	writtenBytes  int64

	// degradation multiplies all service times; experiments use it to
	// inject device health incidents (firmware pauses, thermal
	// throttling) and verify the controllers adapt.
	degradation float64

	// stallUntil makes the device unresponsive until that instant: any IO
	// issued before it waits out the remainder of the stall on top of its
	// service time, modeling firmware garbage-collection pauses.
	stallUntil vclock.Time

	readObserver func(vclock.Duration)

	// Registry instruments, nil until EnableTelemetry.
	telReads, telWrites, telWrittenBytes *telemetry.Counter
	telReadLat, telWriteLat              *telemetry.Histogram
	telBatchPages                        *telemetry.Histogram
}

// SetDegradation scales the device's service times by factor (>= 1) from
// now on; 1 restores nominal behaviour.
func (d *SSDDevice) SetDegradation(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.degradation = factor
}

// InjectWear charges n bytes against the device's endurance budget without
// performing IO — the chaos engine's stand-in for a device that arrives
// mid-life or is shared with a write-heavy neighbour. Wear is irreversible.
func (d *SSDDevice) InjectWear(n int64) {
	if n > 0 {
		d.writtenBytes += n
	}
}

// InjectStall freezes the device until now+dur: IO issued inside the window
// waits out its remainder. A later call may extend but never shorten an
// active stall.
func (d *SSDDevice) InjectStall(now vclock.Time, dur vclock.Duration) {
	if until := now.Add(dur); until > d.stallUntil {
		d.stallUntil = until
	}
}

// wearFactor converts endurance overuse into a latency multiplier. Within
// the rated budget the device behaves nominally; past it, program/erase
// retries and shrinking spare area slow every IO, up to ~12x for a device
// driven far beyond its pTBW rating.
func (d *SSDDevice) wearFactor() float64 {
	over := d.EnduranceUsed() - 1
	if over <= 0 {
		return 1
	}
	f := 1 + 6*over
	if f > 12 {
		f = 12
	}
	return f
}

// stallRemainder returns how much of an injected stall window an IO issued
// at now must wait out.
func (d *SSDDevice) stallRemainder(now vclock.Time) vclock.Duration {
	if now < d.stallUntil {
		return d.stallUntil.Sub(now)
	}
	return 0
}

// ObserveReads registers a callback invoked with every read's latency;
// experiment harnesses use it to build latency-percentile panels (Fig. 12a).
func (d *SSDDevice) ObserveReads(fn func(vclock.Duration)) { d.readObserver = fn }

// maxUtilization caps the queueing factor so a saturated device degrades
// latency by at most 10x instead of diverging.
const maxUtilization = 0.90

// NewSSDDevice returns a device following spec, with its own deterministic
// random stream derived from seed.
func NewSSDDevice(spec DeviceSpec, seed uint64) *SSDDevice {
	return &SSDDevice{
		Spec:       spec,
		rng:        dist.NewRand(seed),
		readLat:    dist.FitLogNormal(spec.ReadMedian, spec.ReadP99),
		writeLat:   dist.FitLogNormal(spec.WriteMedian, spec.WriteP99),
		readMeter:  metrics.NewRateMeter(100*vclock.Millisecond, 10),
		writeMeter: metrics.NewRateMeter(100*vclock.Millisecond, 10),
		byteMeter:  metrics.NewRateMeter(vclock.Second, 10),
	}
}

// queueFactor converts recent utilisation of an IOPS ceiling into a latency
// multiplier.
func queueFactor(rate, capacity float64) float64 {
	if capacity <= 0 {
		return 1
	}
	rho := rate / capacity
	if rho > maxUtilization {
		rho = maxUtilization
	}
	return 1 / (1 - rho)
}

// transferTime converts a payload size into its sequential-transfer cost at
// the given bandwidth; zero bandwidth disables the term.
func transferTime(bytes int64, bw float64) vclock.Duration {
	if bw <= 0 || bytes <= 0 {
		return 0
	}
	return vclock.Duration(float64(bytes) / bw * float64(vclock.Second))
}

// Read performs one 4KiB-class read and returns its latency.
func (d *SSDDevice) Read(now vclock.Time) vclock.Duration {
	return d.ReadBatch(now, 1, 4096)
}

// ReadBatch performs one clustered read submission covering pages pages and
// bytes payload bytes, and returns its completion latency. A batch is ONE
// device operation on the IOPS meter — the device sees a single larger
// sequential read, not pages random 4KiB ones — so it pays the sampled
// service latency (seek + queueing + degradation + wear) once, plus a
// bytes/bandwidth transfer term, plus any injected-stall remainder once.
func (d *SSDDevice) ReadBatch(now vclock.Time, pages int, bytes int64) vclock.Duration {
	d.reads += int64(pages)
	d.readMeter.Add(now, 1)
	f := queueFactor(d.readMeter.Rate(now), d.Spec.ReadIOPS)
	if d.degradation > 1 {
		f *= d.degradation
	}
	f *= d.wearFactor()
	lat := vclock.Duration(float64(d.readLat.Sample(d.rng))*f) +
		transferTime(bytes, d.Spec.ReadBWBytesPerSec) +
		d.stallRemainder(now)
	if d.readObserver != nil {
		d.readObserver(lat)
	}
	if d.telReads != nil {
		d.telReads.Add(int64(pages))
		d.telReadLat.Record(float64(lat))
	}
	if d.telBatchPages != nil {
		d.telBatchPages.Record(float64(pages))
	}
	return lat
}

// Write performs one write of n bytes and returns its (asynchronous)
// device-side latency. Callers on the reclaim path ignore the latency —
// swap-out is writeback — but the bytes count against endurance.
func (d *SSDDevice) Write(now vclock.Time, n int64) vclock.Duration {
	return d.WriteBatch(now, 1, n)
}

// WriteBatch performs one clustered write submission of pages pages and
// bytes payload bytes and returns its device-side latency: one operation on
// the write-IOPS meter, one sampled service latency scaled by
// queueing/degradation/wear, plus a bytes/bandwidth transfer term so a
// 16-page writeback costs more than a single 4KiB page, plus any
// injected-stall remainder paid once for the whole batch.
func (d *SSDDevice) WriteBatch(now vclock.Time, pages int, bytes int64) vclock.Duration {
	d.writes += int64(pages)
	d.writtenBytes += bytes
	d.writeMeter.Add(now, 1)
	d.byteMeter.Add(now, float64(bytes))
	f := queueFactor(d.writeMeter.Rate(now), d.Spec.WriteIOPS)
	if d.degradation > 1 {
		f *= d.degradation
	}
	f *= d.wearFactor()
	lat := vclock.Duration(float64(d.writeLat.Sample(d.rng))*f) +
		transferTime(bytes, d.Spec.WriteBWBytesPerSec) +
		d.stallRemainder(now)
	if d.telWrites != nil {
		d.telWrites.Add(int64(pages))
		d.telWrittenBytes.Add(bytes)
		d.telWriteLat.Record(float64(lat))
	}
	if d.telBatchPages != nil {
		d.telBatchPages.Record(float64(pages))
	}
	return lat
}

// Reads returns the cumulative read count.
func (d *SSDDevice) Reads() int64 { return d.reads }

// Writes returns the cumulative write count.
func (d *SSDDevice) Writes() int64 { return d.writes }

// WrittenBytes returns cumulative bytes written, the endurance-relevant
// figure.
func (d *SSDDevice) WrittenBytes() int64 { return d.writtenBytes }

// WriteByteRate returns the recent write rate in bytes/second.
func (d *SSDDevice) WriteByteRate(now vclock.Time) float64 { return d.byteMeter.Rate(now) }

// ReadRate returns the recent read IOPS.
func (d *SSDDevice) ReadRate(now vclock.Time) float64 { return d.readMeter.Rate(now) }

// EnduranceUsed returns the fraction of the device's rated lifetime writes
// already consumed.
func (d *SSDDevice) EnduranceUsed() float64 {
	ratedBytes := d.Spec.EndurancePTBW * 1e15
	if ratedBytes <= 0 {
		return 0
	}
	return float64(d.writtenBytes) / ratedBytes
}

// SSDSwap is a swap partition on an SSDDevice. Swap-out writes go through a
// depth-limited asynchronous writeback queue (see writeback.go): Store
// enqueues and returns immediately unless the queue is full, in which case
// the returned Latency carries the backpressure stall the reclaimer must
// serve.
type SSDSwap struct {
	dev *SSDDevice
	// capacity is the swap partition size in bytes; 0 means unlimited.
	capacity int64

	pageBytes map[Handle]int64
	next      Handle
	stats     Stats
	wb        *writebackQueue
}

// NewSSDSwap returns a swap backend over dev with the given partition size
// in bytes (0 = unbounded) and the default async writeback queue.
func NewSSDSwap(dev *SSDDevice, capacity int64) *SSDSwap {
	return &SSDSwap{
		dev:       dev,
		capacity:  capacity,
		pageBytes: make(map[Handle]int64),
		wb:        newWritebackQueue(dev, WritebackConfig{}),
	}
}

// ConfigureWriteback replaces the writeback queue's limits. Pending
// submissions from the old configuration are issued inline first so no
// queued write is lost.
func (s *SSDSwap) ConfigureWriteback(cfg WritebackConfig) {
	for i := 0; i < s.wb.n; i++ {
		e := s.wb.ring[(s.wb.head+i)%len(s.wb.ring)]
		s.dev.WriteBatch(e.ready, e.pages, e.bytes)
	}
	nq := newWritebackQueue(s.dev, cfg)
	nq.telDrained, nq.telStalls, nq.telStallUs = s.wb.telDrained, s.wb.telStalls, s.wb.telStallUs
	s.wb = nq
}

// Device exposes the underlying SSD (shared with the filesystem).
func (s *SSDSwap) Device() *SSDDevice { return s.dev }

// QueueDepth returns the current async writeback queue depth.
func (s *SSDSwap) QueueDepth() int { return s.wb.depth() }

// admit reserves space for one page, recording it under a fresh handle.
func (s *SSDSwap) admit(pageBytes int64) (Handle, bool) {
	if s.capacity > 0 && s.stats.StoredBytes+pageBytes > s.capacity {
		return 0, false
	}
	h := s.next
	s.next++
	s.pageBytes[h] = pageBytes
	s.stats.StoredPages++
	s.stats.LogicalBytes += pageBytes
	s.stats.StoredBytes += pageBytes
	s.stats.TotalWrites++
	s.stats.WrittenBytes += pageBytes
	return h, true
}

// submitWriteback hands a store submission to the async queue (or writes
// inline when the queue is disabled) and returns the reclaimer-visible
// stall.
func (s *SSDSwap) submitWriteback(now vclock.Time, pages int, bytes int64) vclock.Duration {
	if s.wb.cfg.Disabled {
		s.dev.WriteBatch(now, pages, bytes)
		return 0
	}
	return s.wb.push(now, pages, bytes)
}

// Store implements SwapBackend. Pages are written uncompressed; compression
// ratio is ignored on the SSD path. The returned Latency is the writeback
// queue's backpressure stall — zero while the queue has room.
func (s *SSDSwap) Store(now vclock.Time, pageBytes int64, _ float64) (StoreResult, error) {
	h, ok := s.admit(pageBytes)
	if !ok {
		return StoreResult{}, ErrFull
	}
	stall := s.submitWriteback(now, 1, pageBytes)
	return StoreResult{Handle: h, StoredBytes: pageBytes, DeviceWrite: pageBytes, Latency: stall}, nil
}

// StoreBatch implements SwapBackend: the whole batch is one writeback-queue
// submission (one device write op when it drains). Capacity is checked per
// page, so on ErrFull the stored prefix still goes out as a single
// submission. The backpressure stall, if any, is charged to the batch's
// first page.
func (s *SSDSwap) StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error) {
	n := 0
	var bytes int64
	for _, req := range reqs {
		h, ok := s.admit(req.PageBytes)
		if !ok {
			break
		}
		out[n] = StoreResult{Handle: h, StoredBytes: req.PageBytes, DeviceWrite: req.PageBytes}
		bytes += req.PageBytes
		n++
	}
	if n > 0 {
		out[0].Latency = s.submitWriteback(now, n, bytes)
	}
	if n < len(reqs) {
		return n, ErrFull
	}
	return n, nil
}

// Load implements SwapBackend.
func (s *SSDSwap) Load(now vclock.Time, h Handle) LoadResult {
	s.wb.drain(now)
	n, ok := s.pageBytes[h]
	if !ok {
		panic(fmt.Sprintf("backend: load of unknown swap handle %d", h))
	}
	lat := s.dev.ReadBatch(now, 1, n)
	s.release(h, n)
	s.stats.TotalReads++
	return LoadResult{Latency: lat, BlockIO: true}
}

// LoadBatch implements SwapBackend: the whole cluster is one device read
// submission, paying the sampled service latency, queue factor, and any
// injected-stall remainder once, plus the byte-rate transfer term for the
// full payload.
func (s *SSDSwap) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	s.wb.drain(now)
	var bytes int64
	for _, h := range hs {
		n, ok := s.pageBytes[h]
		if !ok {
			panic(fmt.Sprintf("backend: load of unknown swap handle %d", h))
		}
		bytes += n
		s.release(h, n)
	}
	s.stats.TotalReads += int64(len(hs))
	lat := s.dev.ReadBatch(now, len(hs), bytes)
	return BatchLoadResult{Latency: lat, BlockIO: true}
}

// DrainWriteback implements SwapBackend: issue queued swap-out writes due by
// now.
func (s *SSDSwap) DrainWriteback(now vclock.Time) {
	s.wb.drain(now)
}

// Free implements SwapBackend.
func (s *SSDSwap) Free(h Handle) {
	if n, ok := s.pageBytes[h]; ok {
		s.release(h, n)
	}
}

func (s *SSDSwap) release(h Handle, n int64) {
	delete(s.pageBytes, h)
	s.stats.StoredPages--
	s.stats.LogicalBytes -= n
	s.stats.StoredBytes -= n
}

// Stats implements SwapBackend.
func (s *SSDSwap) Stats() Stats { return s.stats }

// WriteRate implements SwapBackend.
func (s *SSDSwap) WriteRate(now vclock.Time) float64 { return s.dev.WriteByteRate(now) }

// PoolBytes implements SwapBackend; SSD swap consumes no host DRAM.
func (s *SSDSwap) PoolBytes() int64 { return 0 }

// Filesystem is the file-backed storage path on the host SSD. Evicted file
// cache is reloaded through it, and first-touch file reads (cache fills) go
// through it as well.
type Filesystem struct {
	dev    *SSDDevice
	reads  int64
	writes int64
}

// NewFilesystem returns a filesystem sharing dev with swap.
func NewFilesystem(dev *SSDDevice) *Filesystem { return &Filesystem{dev: dev} }

// Device exposes the underlying SSD.
func (f *Filesystem) Device() *SSDDevice { return f.dev }

// ReadPage reads one file page from storage, returning the IO latency.
func (f *Filesystem) ReadPage(now vclock.Time) vclock.Duration {
	f.reads++
	return f.dev.Read(now)
}

// WritePage writes one dirty file page back to storage (flusher-thread
// writeback), returning the device-side latency. The bytes count against
// the device's endurance like any other write.
func (f *Filesystem) WritePage(now vclock.Time) vclock.Duration {
	f.writes++
	return f.dev.Write(now, 4096)
}

// Writes returns cumulative file writeback count.
func (f *Filesystem) Writes() int64 { return f.writes }

// Reads returns cumulative file read count (the paper's "SSD read rate"
// panel in Fig. 13 reports the rate of these).
func (f *Filesystem) Reads() int64 { return f.reads }
