package backend

import (
	"fmt"
	"math/rand/v2"

	"tmo/internal/dist"
	"tmo/internal/metrics"
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
	readLat    dist.LogNormal
	writeLat   dist.LogNormal
	readMeter  *metrics.RateMeter
	writeMeter *metrics.RateMeter // IOPS
	byteMeter  *metrics.RateMeter // written bytes/s

	// reads and writes count pages, writtenBytes the bytes the writes
	// carried, and wear the bytes InjectWear charged without IO; the
	// endurance figure is their sum.
	reads, writes      int64
	writtenBytes, wear int64

	// degradation multiplies all service times; experiments use it to
	// inject device health incidents (firmware pauses, thermal
	// throttling) and verify the controllers adapt.
	degradation float64

	// stallUntil makes the device unresponsive until that instant: any IO
	// issued before it waits out the remainder of the stall on top of its
	// service time, modeling firmware garbage-collection pauses.
	stallUntil vclock.Time

	readObserver func(vclock.Duration)

	// IO latencies in µs and pages per IO; EnableTelemetry registers them.
	readHist, writeHist, batchHist metrics.Histogram
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
		d.wear += n
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
	d.readHist.Record(int64(lat))
	d.batchHist.Record(int64(pages))
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
	d.writeHist.Record(int64(lat))
	d.batchHist.Record(int64(pages))
	return lat
}

// ReadLatencies returns the histogram of every read's latency in µs.
func (d *SSDDevice) ReadLatencies() *metrics.Histogram { return &d.readHist }

// Reads returns the cumulative read count.
func (d *SSDDevice) Reads() int64 { return d.reads }

// WrittenBytes returns the bytes charged against endurance: those written by
// IO plus any injected wear.
func (d *SSDDevice) WrittenBytes() int64 { return d.writtenBytes + d.wear }

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
	return float64(d.WrittenBytes()) / ratedBytes
}

// SSDSwap is the cost model of a swap partition on an SSDDevice: the device
// and its depth-limited asynchronous writeback queue (see writeback.go).
// Pages are written uncompressed. A store submission enqueues and returns
// immediately unless the queue is full, in which case the reclaimer serves
// the backpressure stall; a load submission is one clustered device read.
type SSDSwap struct {
	dev *SSDDevice
	wb  *writebackQueue
}

// Writeback returns the async writeback queue's cumulative counts:
// submissions issued to the device (a clustered batch counts once), pushes
// that stalled on a full queue, and the stall those pushes served.
func (s *SSDSwap) Writeback() (drained, stalls int64, stallTime vclock.Duration) {
	return s.wb.drained, s.wb.stalls, s.wb.stallTime
}

// write hands one store submission of pages/bytes to the async queue and
// returns the reclaimer-visible stall.
func (s *SSDSwap) write(now vclock.Time, pages int, bytes int64) vclock.Duration {
	return s.wb.push(now, pages, bytes)
}

// read serves one clustered load submission: queued writes due by now
// issue first, then the cluster pays the sampled service latency, queue
// factor and any injected-stall remainder once, plus the byte-rate transfer
// term for the full payload.
func (s *SSDSwap) read(now vclock.Time, pages int, bytes int64) vclock.Duration {
	s.wb.drain(now)
	return s.dev.ReadBatch(now, pages, bytes)
}

// Filesystem is the file-backed storage path on the host SSD. Evicted file
// cache is reloaded through it, and first-touch file reads (cache fills) go
// through it as well.
type Filesystem struct {
	dev   *SSDDevice
	reads int64
}

// NewFilesystem returns a filesystem sharing dev with swap.
func NewFilesystem(dev *SSDDevice) *Filesystem { return &Filesystem{dev: dev} }

// ReadPage reads one file page from storage, returning the IO latency.
func (f *Filesystem) ReadPage(now vclock.Time) vclock.Duration {
	f.reads++
	return f.dev.Read(now)
}

// WritePage writes one dirty file page back to storage (flusher-thread
// writeback), returning the device-side latency. The bytes count against
// the device's endurance like any other write.
func (f *Filesystem) WritePage(now vclock.Time) vclock.Duration {
	return f.dev.Write(now, 4096)
}

// Reads returns cumulative file read count (the paper's "SSD read rate"
// panel in Fig. 13 reports the rate of these).
func (f *Filesystem) Reads() int64 { return f.reads }
