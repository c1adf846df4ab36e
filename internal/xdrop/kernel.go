package xdrop

// Kernel identifies which cell width a batch's seed extensions run the
// wavefront driver at. Selection happens once per merged batch, keyed by
// the batch's scheme and X-drop threshold (the coalescer's config key),
// so the per-cell loops carry no mode branches — the AnySeq-style
// specialize-at-batch-prep discipline applied to kernel dispatch.
type Kernel uint8

const (
	// KernelScalar runs the int32 row kernels: every scheme family has
	// one, and the linear one (Workspace.Extend) is the fallback when a
	// configuration exceeds the vector envelope.
	KernelScalar Kernel = iota
	// KernelVector is the int16 lane kernel (ExtendVector): on amd64 the
	// fused assembly extension, 16-lane AVX2 or 8-lane SSE2 by CPU
	// (VectorISA), elsewhere the wavefront driver over the portable 8-lane
	// rows. Linear DNA configurations inside the vector envelope only.
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
// inside the vector envelope (VectorEligible) get the vector fast path,
// everything else — affine, matrix, out-of-envelope linear — keeps the
// scalar kernel. Both kernels are bit-identical on every input, so the
// choice affects throughput only.
func SelectKernel(sch Scheme, x int32) Kernel {
	if sch.Kind == SchemeLinear && VectorEligible(sch.Linear, x) {
		return KernelVector
	}
	return KernelScalar
}
