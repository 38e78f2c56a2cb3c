package backend

import (
	"testing"

	"tmo/internal/vclock"
)

func TestNVMStoreLoadFree(t *testing.T) {
	n := NewNVM(SpecNVMOptane, 71)
	res, err := n.Store(0, pageSize, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredBytes != pageSize || res.DeviceWrite != 0 || res.Latency != 0 {
		t.Fatalf("store result = %+v", res)
	}
	if n.PoolBytes() != 0 {
		t.Fatalf("NVM must cost no host DRAM")
	}
	lr := n.Load(0, res.Handle)
	if lr.BlockIO {
		t.Fatalf("NVM load reported block IO")
	}
	if lr.Latency <= 0 || lr.Latency > 100*vclock.Microsecond {
		t.Fatalf("NVM load latency = %v, want a few us", lr.Latency)
	}
	if n.Stats().StoredPages != 0 {
		t.Fatalf("stats after load: %+v", n.Stats())
	}
	res2, _ := n.Store(0, pageSize, 1)
	n.Free(res2.Handle)
	n.Free(res2.Handle) // no-op
	if n.Stats().StoredPages != 0 {
		t.Fatalf("free leaked")
	}
	if n.WriteRate(0) != 0 {
		t.Fatalf("NVM write rate must be 0 (no endurance regulation)")
	}
}

func TestNVMCapacity(t *testing.T) {
	spec := SpecCXLDRAM
	spec.CapacityBytes = 2 * pageSize
	n := NewNVM(spec, 72)
	n.Store(0, pageSize, 1)
	n.Store(0, pageSize, 1)
	if _, err := n.Store(0, pageSize, 1); err != ErrFull {
		t.Fatalf("over-capacity store err = %v", err)
	}
}

func TestNVMLoadUnknownPanics(t *testing.T) {
	n := NewNVM(SpecNVMOptane, 73)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	n.Load(0, 5)
}

func TestNVMFasterThanSSDSlowerThanZswap(t *testing.T) {
	// The latency ordering that makes the spectrum experiment meaningful:
	// zswap < CXL < NVM < any SSD (median).
	ssd := DeviceCatalog[6] // fastest SSD generation
	if !(SpecCXLDRAM.ReadMedian < SpecNVMOptane.ReadMedian &&
		SpecNVMOptane.ReadMedian < ssd.ReadMedian) {
		t.Fatalf("tier latency ordering broken")
	}
	if CodecZstd.DecompressMedian >= ssd.ReadMedian {
		t.Fatalf("zswap not faster than SSD")
	}
}

func TestSSDDegradation(t *testing.T) {
	spec, _ := DeviceByModel("C")
	dev := NewSSDDevice(spec, 74)
	base := NewSSDDevice(spec, 74) // same stream
	dev.SetDegradation(8)
	var degraded, nominal float64
	now := vclock.Time(0)
	for i := 0; i < 500; i++ {
		degraded += float64(dev.Read(now))
		nominal += float64(base.Read(now))
		now = now.Add(10 * vclock.Millisecond)
	}
	if degraded < 6*nominal {
		t.Fatalf("degradation x8 produced only %.1fx slowdown", degraded/nominal)
	}
	dev.SetDegradation(0) // clamps to 1: back to nominal
	a := float64(dev.Read(now))
	_ = a
	dev.SetDegradation(1)
}
