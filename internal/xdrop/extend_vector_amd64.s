// The fused int16 X-drop extension: wave (wave.go) over vectorKernel
// (extend_vector.go), the whole anti-diagonal loop in one call. The Go
// declarations and the driver that pauses and resumes it are in
// extend_vector_amd64.go; the fields of fusedState are reached through the
// offsets go_asm.h generates from its declaration.
//
// Per anti-diagonal d, in wave's order: fill rt[n-d], clip the band to the
// matrix, stop on an empty band, pause (return to Go) if the band-local
// best reached the rebase mark or the cell budget ran out, then the border
// cell i = 0, the interior cells, the border cell j = 0, the work counters
// and the trace, the trim of both band ends, the sentinels around the
// survivors, and the rotation of the three diagonal buffers.
//
// Interior rows run in blocks exactly as vectorRowPortable does: 8 lanes
// (rows of 8 cells or more) or, in the AVX2 routine, 16 lanes for rows of
// 32 cells or more (below that 8 lanes measured faster); a row that is not
// a lane multiple ends in one block re-anchored at its last cell that
// overlaps its predecessor; rows narrower than 8 cells run a scalar loop.
// Per block of L cells at cell i (SSE2 mnemonics; the 16-lane blocks are
// the same dataflow on YMM):
//
//	eq    = PCMPEQB(q[i-1..], rt[n-d+i..])     byte 0xFF where equal
//	mask  = PUNPCKLBW(eq, eq)                  widened to words
//	sub   = d3 + mism + (mask & (match-mism))  PADDW, exact by rebase
//	g     = PMAXSW(up, left) + gap             two overlapping loads of
//	                                           the previous diagonal
//	s     = PMAXSW(sub, g)
//	prune = PCMPGTW(thr, s)                    s < threshold, strict
//	s'    = ((s - ninf) &^ prune) + ninf       pruned lanes hold ninf
//	rowmax= PMAXSW(rowmax, s')
//
// Only when the horizontal row maximum beats the running best does a
// PCMPEQW/PMOVMSKB/BSF walk of the stored row (same block order) find the
// first cell holding it: the scalar kernel's tie order. The band ends are
// trimmed with the same compare against the sentinel, BSF from the front
// and BSR from the back, in overlapped 8-lane blocks when the band is 8
// cells or wider. Nothing outside the cells an extension reads is touched:
// q[0, m), t and rt[0, n), and the first bandLen(m, n) slots of each
// diagonal buffer.
//
// All lane adds wrap (PADDW/PSUBW): the rebase invariant keeps live lanes
// in (-8193, 16638) and sentinel-sourced lanes above -29256, so no int16
// overflow is reachable in sub, g or s; s - ninf may wrap and is undone
// exactly by the + ninf. The scalar paths compute in 64 bits, which agrees
// for the same reason.
//
// The body is written once, in extend_vector_amd64.h, with two-operand
// vector pseudo-mnemonics that this file defines twice: as legacy SSE2
// instructions for vectorExtendSSE2 and as their VEX forms for
// vectorExtendAVX2, which therefore keeps its 256-bit constants in
// registers for the whole call and never runs a legacy-encoded
// instruction while the upper YMM halves are dirty.
//
// Registers, for the whole call:
//
//	DI   *fusedState
//	R8   cell 0 of the diagonal being written (cell i at (R8)(i*2))
//	R9   cell 0 of the previous diagonal (a2)
//	R10  cell 0 of the one before (a3)
//	R11  q (q[i-1] at -1(R11)(i*1))
//	R12  &rt[n-d] (rt[n-d+i] at (R12)(i*1))
//	R13  d
//	R14  lo, R15 hi: the band, as cell indices i
//	BX   the running best (after this anti-diagonal's cells so far)
//	X14, X15, X7  the buffers being written, holding a2 and holding a3
//	X8   match - mismatch, X9 mismatch, X10 gap, X12 ninf (Y8..Y12 on AVX2)
//	X11  the threshold of this anti-diagonal (Y11 on AVX2)
//	AX, CX, DX, SI, X0..X6, X13: scratch

#include "go_asm.h"
#include "textflag.h"

// func vectorExtendSSE2(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32)
TEXT ·vectorExtendSSE2(SB), NOSPLIT, $0-48
#define LOADU(m, x)     MOVOU m, x
#define STOREU(x, m)    MOVOU x, m
#define LOADQ(m, x)     MOVQ m, x
#define COPY(a, x)      MOVO a, x
#define GPRTOX(r, x)    MOVQ r, x
#define XTOGPR(x, r)    MOVQ x, r
#define EQB(a, x)       PCMPEQB a, x
#define EQW(a, x)       PCMPEQW a, x
#define GTW(a, x)       PCMPGTW a, x
#define UNPCKLBW(a, x)  PUNPCKLBW a, x
#define UNPCKLQDQ(a, x) PUNPCKLQDQ a, x
#define AND(a, x)       PAND a, x
#define ANDN(a, x)      PANDN a, x
#define ADDW(a, x)      PADDW a, x
#define SUBW(a, x)      PSUBW a, x
#define MAXW(a, x)      PMAXSW a, x
#define SHUFD(i, a, x)  PSHUFD i, a, x
#define SHUFLW(i, a, x) PSHUFLW i, a, x
#define MOVMSKB(x, r)   PMOVMSKB x, r
#define SPLATW(r, x, y) MOVQ r, x; PSHUFLW $0x00, x, x; PUNPCKLQDQ x, x
#include "extend_vector_amd64.h"
#undef LOADU
#undef STOREU
#undef LOADQ
#undef COPY
#undef GPRTOX
#undef XTOGPR
#undef EQB
#undef EQW
#undef GTW
#undef UNPCKLBW
#undef UNPCKLQDQ
#undef AND
#undef ANDN
#undef ADDW
#undef SUBW
#undef MAXW
#undef SHUFD
#undef SHUFLW
#undef MOVMSKB
#undef SPLATW

// func vectorExtendAVX2(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32)
//
// VEX-encoded throughout, so the 256-bit constants stay in Y8..Y12 for the
// whole call, and ends in VZEROUPPER: one legacy-encoded SSE instruction
// while the upper YMM halves are dirty costs a state transition per use.
#define FUSED_AVX2
TEXT ·vectorExtendAVX2(SB), NOSPLIT, $0-48
#define LOADU(m, x)     VMOVDQU m, x
#define STOREU(x, m)    VMOVDQU x, m
#define LOADQ(m, x)     VMOVQ m, x
#define COPY(a, x)      VMOVDQA a, x
#define GPRTOX(r, x)    VMOVQ r, x
#define XTOGPR(x, r)    VMOVQ x, r
#define EQB(a, x)       VPCMPEQB a, x, x
#define EQW(a, x)       VPCMPEQW a, x, x
#define GTW(a, x)       VPCMPGTW a, x, x
#define UNPCKLBW(a, x)  VPUNPCKLBW a, x, x
#define UNPCKLQDQ(a, x) VPUNPCKLQDQ a, x, x
#define AND(a, x)       VPAND a, x, x
#define ANDN(a, x)      VPANDN a, x, x
#define ADDW(a, x)      VPADDW a, x, x
#define SUBW(a, x)      VPSUBW a, x, x
#define MAXW(a, x)      VPMAXSW a, x, x
#define SHUFD(i, a, x)  VPSHUFD i, a, x
#define SHUFLW(i, a, x) VPSHUFLW i, a, x
#define MOVMSKB(x, r)   VPMOVMSKB x, r
#define SPLATW(r, x, y) VMOVQ r, x; VPBROADCASTW x, y
#include "extend_vector_amd64.h"
#undef LOADU
#undef STOREU
#undef LOADQ
#undef COPY
#undef GPRTOX
#undef XTOGPR
#undef EQB
#undef EQW
#undef GTW
#undef UNPCKLBW
#undef UNPCKLQDQ
#undef AND
#undef ANDN
#undef ADDW
#undef SUBW
#undef MAXW
#undef SHUFD
#undef SHUFLW
#undef MOVMSKB
#undef SPLATW
#undef FUSED_AVX2

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7           // highest basic leaf
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX  // leaf 1 ECX: OSXSAVE (27) and AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX           // XCR0: XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX       // leaf 7 EBX bit 5: AVX2
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET
