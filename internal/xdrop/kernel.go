package xdrop

// Kernel identifies which cell width a batch's seed extensions run the
// wavefront driver at. Selection happens once per merged batch, keyed by
// the batch's scheme and X-drop threshold (the coalescer's config key),
// so the per-cell loops carry no mode branches — the AnySeq-style
// specialize-at-batch-prep discipline applied to kernel dispatch.
type Kernel uint8

const (
	// KernelScalar runs the int32 row kernels: every scheme family has
	// one, and the linear one is the fallback when a configuration
	// exceeds the vector envelope.
	KernelScalar Kernel = iota
	// KernelVector is the int16 lane kernel (extendVector): the fused
	// assembly extension on amd64, AVX-512, AVX2 or SSE2 by CPU
	// (VectorISA). Linear DNA configurations inside the vector envelope
	// only; where there is no fused routine SelectKernel never picks it,
	// and forcing it runs the scalar kernel.
	KernelVector
)

// String names the kernel variant as exported on /metrics and /statz.
func (k Kernel) String() string {
	if k == KernelVector {
		return "vector"
	}
	return "scalar"
}

// SelectKernel picks the kernel for one merged batch: linear DNA schemes
// inside the vector envelope (VectorEligible) get the vector fast path
// when this host has a fused routine, everything else — affine, matrix,
// out-of-envelope linear, and every scheme off amd64 — keeps the scalar
// kernel. Both kernels are bit-identical on every input, so the choice
// affects throughput only.
func SelectKernel(sch Scheme, x int32) Kernel {
	if vectorISA != isaNone && sch.Kind == SchemeLinear && VectorEligible(sch.Linear, x) {
		return KernelVector
	}
	return KernelScalar
}
