package cuda

import "time"

// Stream is an ordered queue of device operations with a modeled timeline,
// the analogue of a CUDA stream. Operations execute immediately (the
// simulator is functional), but their modeled durations are composed with
// discrete-event semantics: a stream's operations serialize among
// themselves; across streams, kernels contend for the compute engine and
// copies for the copy engine, so concurrent streams overlap transfers with
// compute exactly the way LOGAN's two extension streams do (paper §IV-B).
type Stream struct {
	dev *Device
	now time.Duration
}

// NewStream creates a stream whose timeline starts at the device's origin.
func (d *Device) NewStream() *Stream { return &Stream{dev: d} }

// ResetTimeline zeroes the device's engine timelines so that a new batch's
// modeled time starts from zero. Streams created before the reset must not
// be reused afterwards.
func (d *Device) ResetTimeline() {
	d.mu.Lock()
	d.computeAt, d.copyAt = 0, 0
	d.mu.Unlock()
}

// LaunchAsync executes the kernel (synchronously in host terms) and
// advances the stream's modeled clock by the kernel's modeled duration,
// serialized on the device's compute engine.
func (s *Stream) LaunchAsync(cfg LaunchConfig, kernel KernelFunc) (KernelStats, error) {
	stats, err := s.dev.Launch(cfg, kernel)
	if err != nil {
		return stats, err
	}
	var dur time.Duration
	if s.dev.Timer != nil {
		dur = s.dev.Timer.KernelTime(s.dev.Spec, stats)
	}
	s.enqueue(&s.dev.computeAt, dur)
	return stats, nil
}

// Memcpy charges a host<->device transfer of the given size: the stream's
// clock advances by the modeled transfer time on the device's copy
// engine. No data moves; device memory is a ledger (see Buffer).
func (s *Stream) Memcpy(bytes int64) {
	var dur time.Duration
	if s.dev.Timer != nil {
		dur = s.dev.Timer.CopyTime(s.dev.Spec, bytes)
	}
	s.enqueue(&s.dev.copyAt, dur)
}

// enqueue places an operation of duration dur on one of the device's
// engines: it starts once both the stream's previous work and the
// engine's current occupant are done.
func (s *Stream) enqueue(engine *time.Duration, dur time.Duration) {
	s.dev.mu.Lock()
	start := max(s.now, *engine)
	*engine = start + dur
	s.dev.mu.Unlock()
	s.now = start + dur
}

// SyncAll returns the modeled time at which every given stream has drained,
// i.e. the device-level completion time of the composed operation.
func SyncAll(streams ...*Stream) time.Duration {
	var t time.Duration
	for _, s := range streams {
		if s.now > t {
			t = s.now
		}
	}
	return t
}
