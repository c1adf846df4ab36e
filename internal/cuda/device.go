package cuda

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Timer converts counted work into modeled wall time. The concrete
// implementation lives in internal/perfmodel; cuda only defines the
// interface to avoid an import cycle. A nil Timer leaves all modeled
// durations at zero (counts are still exact).
type Timer interface {
	// KernelTime returns the modeled duration of a kernel launch.
	KernelTime(spec DeviceSpec, stats KernelStats) time.Duration
	// CopyTime returns the modeled duration of a host<->device transfer.
	CopyTime(spec DeviceSpec, bytes int64) time.Duration
}

// Device is one simulated GPU. It owns a memory-allocation ledger, the
// compute and copy engine timelines its streams contend on, and the
// launch machinery. Devices are safe for concurrent use by multiple
// goroutines only through independent streams; the ledger and the
// timelines are internally locked.
type Device struct {
	Spec  DeviceSpec
	Timer Timer

	// Workers is the host worker-pool width used to execute blocks. Zero
	// means GOMAXPROCS. It affects only simulation speed, never results
	// or counts.
	Workers int

	mu        sync.Mutex
	allocated int64
	// computeAt and copyAt are the modeled times at which the compute and
	// copy engines fall idle (see Stream).
	computeAt, copyAt time.Duration
}

// NewDevice constructs a device with the given spec.
func NewDevice(spec DeviceSpec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Device{Spec: spec}, nil
}

// MustV100 returns a Tesla V100 device, panicking on spec errors (none for
// the builtin spec). Convenience for tests and examples.
func MustV100() *Device {
	d, err := NewDevice(TeslaV100())
	if err != nil {
		panic(err)
	}
	return d
}

// Allocated returns the bytes currently allocated on the device.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// ErrOutOfMemory is returned when an allocation exceeds device capacity.
type ErrOutOfMemory struct {
	Requested, Free int64
}

func (e ErrOutOfMemory) Error() string {
	return fmt.Sprintf("cuda: out of device memory: requested %d bytes, %d free", e.Requested, e.Free)
}

// Buffer is a device allocation. Device memory is a ledger: no storage
// stands behind a Buffer (kernels read host memory), but its size is
// charged against the device's HBM capacity until Free, so batching code
// hits the same memory wall the real LOGAN host code manages around.
type Buffer struct {
	dev   *Device
	bytes int64
	freed bool
}

// Alloc reserves bytes of device memory.
func (d *Device) Alloc(bytes int64) (*Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocated+bytes > d.Spec.HBMBytes {
		return nil, ErrOutOfMemory{Requested: bytes, Free: d.Spec.HBMBytes - d.allocated}
	}
	d.allocated += bytes
	return &Buffer{dev: d, bytes: bytes}, nil
}

// Free releases the buffer's reservation. Double frees are no-ops.
func (b *Buffer) Free() {
	if b == nil || b.freed {
		return
	}
	b.freed = true
	b.dev.mu.Lock()
	b.dev.allocated -= b.bytes
	b.dev.mu.Unlock()
}

func (d *Device) workerCount() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return runtime.GOMAXPROCS(0)
}
