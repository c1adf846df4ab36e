// The fused int16 X-drop extension: wave (wave.go) over linearRow
// (workspace.go) in int16 lanes, the whole anti-diagonal loop in one
// call. The Go declarations and the driver that pauses and resumes it are
// in extend_vector_amd64.go; the fields of fusedState, which also holds
// every pointer the routine reads through, are reached through the
// offsets go_asm.h generates from its declaration. The paired AVX-512
// routine, two extensions per loop, is at the end of
// extend_vector_amd64.h.
//
// The routines read the extension as fusedSlot.stage laid it out before
// the call: q and the reversed target rt, each in a padded buffer.
//
// Per anti-diagonal d, in wave's order: stop on an empty band, pause (return to Go) if the band-local best reached the rebase
// mark or the cell budget ran out, the work counters and the trace, then
// the border cell i = 0, the interior cells, the border cell j = 0, the
// trim of both band ends, the sentinels around the survivors, the
// rotation of the three diagonal buffers, and the next band's clip to the
// matrix.
//
// Interior rows run in blocks: 8 lanes (rows of 8 cells or more) or, in
// the AVX2 routine, 16 lanes for rows of 32 cells or more (below that 8
// lanes measured faster); a row that is not a lane multiple ends in one
// block re-anchored at its last cell that overlaps its predecessor, which
// is idempotent because the row never aliases a source (see rowKernel);
// rows narrower than 8 cells run a scalar loop.
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
// the staged q[0, m) and rt[0, n), and the first bandLen(m, n) slots of
// each diagonal buffer; the AVX-512 routine's register mode also reads
// the fusedPad bytes of slack around both copies.
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
// vectorExtendAVX2 and vectorExtendAVX512, which therefore keep their
// 256-bit constants in registers for the whole call and never run a
// legacy-encoded instruction while the upper YMM halves are dirty.
//
// vectorExtendAVX512 adds a register mode (FUSED_AVX512). While the band
// fits a frame of 64 or 128 lanes, the two carried anti-diagonals a2 and
// a3 live in two or four ZMM registers each: lane l of anti-diagonal d
// holds cell F_d + l, where F_d = F_{d-1} + 1 for even d and F_{d-1} for
// odd d, so that F_{d-2} = F_d - 1 and the frame follows the main
// diagonal. Each anti-diagonal is then computed from registers alone, in
// 32-lane registers:
//
//	q, t  = 32-byte loads of the padded copy of q at q[F_d-1+32j] and of
//	        rt at rt[n-d+F_d+32j]: byte l is lane l's base, as in the
//	        memory rows
//	sub   = a3 + mismatch, + (match - mismatch) where q == t
//	                                             VPCMPEQB to a k-mask
//	g     = max(a2, a2 moved one lane) + gap     up one lane for odd d,
//	                                             down for even: VPERMW
//	                                             rotates each register,
//	                                             VPTERNLOGQ takes the lane
//	                                             at its end from the next
//	s     = max(sub, g)
//	live  = band & (s >= thr)                    VPCMPW under the band mask
//	new   = live ? s : ninf                      VPBLENDMW
//
// The border cells need no code: their missing sources are sentinel
// lanes. Only a row whose maximum beats best (one VPCMPW) folds it to
// every lane, which gives best, the threshold and the first lane holding
// it. The next band is the survivors' span, one lane longer at the top
// (TZCNT/BSR of the live masks), in the next frame and clipped to the
// matrix as plant clips it, as k-masks K1..K4. Lanes outside the matrix
// are never in the band, so the bytes the windows read beyond the
// sequences never reach a score: the windows read the padding of the two
// copies, fusedPad bytes before and after them, and the register mode
// runs from d = 1 to the matrix edge.
//
// A 128-lane row does twice the vector work of a 64-lane one, and at
// x=25 and x=50 measured slower than the 64-lane row: a band of at most
// regNarrow cells enters a 64-lane frame, one of at most regReload cells
// a 128-lane frame, and the two rows are the same macros (CELLS per
// register) expanded for two and for four registers. The handoff is Go's
// (fusedSlot.frame and spill in extend_vector_amd64.go): a call that
// starts with the carried rows in fusedState.frame (lanes != 0) loads
// them into Z16..Z23 (framed) and runs in the register mode; when the
// band leaves the frame, or the routine pauses or ends, it stores them
// back with F_d and returns (regs_out), and Go moves them to the buffers
// or into a new frame. A call that starts in memory returns as soon as
// the next band is at most regReload cells wide, for Go to frame it.
// The gaps between regNarrow and 64 and between regReload and 128 are
// the hysteresis.
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
//	X8   match - mismatch, X9 mismatch, X10 gap, X12 ninf (Y8..Y12 on
//	     AVX2, Z8..Z12 on AVX-512)
//	X11  the threshold of this anti-diagonal (Y11 on AVX2)
//	AX, CX, DX, SI, X0..X6, X13: scratch
//
// and in the register mode, where R8 is F_d, R9, R10, CX and DX take the
// survivors of the four registers, and the buffer roles (X14, X15, X7)
// stand still:
//
//	Z16..Z19, Z20..Z23  the two carried rows, taking turns as a2 (odd d
//	     reads a2 from Z16..Z19) and a3, which the new row overwrites
//	Z27 x in every lane, Z26 the threshold, Z31 best
//	Z24, Z25  the VPERMW rotations (up, down); Z28, Z29 their end lanes
//	K1..K4  the band
//	Z0..Z5, Z11, Z13, K5..K7: scratch

#include "go_asm.h"
#include "textflag.h"

// func vectorExtendSSE2(st *fusedState)
TEXT ·vectorExtendSSE2(SB), NOSPLIT, $0-8
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

// The VEX forms, for vectorExtendAVX2 and vectorExtendAVX512.
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
#define FUSED_AVX2

// func vectorExtendAVX2(st *fusedState)
//
// VEX-encoded throughout, so the 256-bit constants stay in Y8..Y12 for the
// whole call, and ends in VZEROUPPER: one legacy-encoded SSE instruction
// while the upper YMM halves are dirty costs a state transition per use.
TEXT ·vectorExtendAVX2(SB), NOSPLIT, $0-8
#include "extend_vector_amd64.h"

// The register mode's constants: VPERMW indexes that rotate the 32
// lanes of a register one lane up and one lane down, and masks of its
// lane 0 and of its lane 31, where the rotation brings in the lane that
// belongs to the neighbouring register.
DATA regsConst<>+0(SB)/8, $0x000200010000001f
DATA regsConst<>+8(SB)/8, $0x0006000500040003
DATA regsConst<>+16(SB)/8, $0x000a000900080007
DATA regsConst<>+24(SB)/8, $0x000e000d000c000b
DATA regsConst<>+32(SB)/8, $0x001200110010000f
DATA regsConst<>+40(SB)/8, $0x0016001500140013
DATA regsConst<>+48(SB)/8, $0x001a001900180017
DATA regsConst<>+56(SB)/8, $0x001e001d001c001b
DATA regsConst<>+64(SB)/8, $0x0004000300020001
DATA regsConst<>+72(SB)/8, $0x0008000700060005
DATA regsConst<>+80(SB)/8, $0x000c000b000a0009
DATA regsConst<>+88(SB)/8, $0x0010000f000e000d
DATA regsConst<>+96(SB)/8, $0x0014001300120011
DATA regsConst<>+104(SB)/8, $0x0018001700160015
DATA regsConst<>+112(SB)/8, $0x001c001b001a0019
DATA regsConst<>+120(SB)/8, $0x0000001f001e001d
DATA regsConst<>+128(SB)/8, $0x000000000000ffff
DATA regsConst<>+136(SB)/8, $0x0000000000000000
DATA regsConst<>+144(SB)/8, $0x0000000000000000
DATA regsConst<>+152(SB)/8, $0x0000000000000000
DATA regsConst<>+160(SB)/8, $0x0000000000000000
DATA regsConst<>+168(SB)/8, $0x0000000000000000
DATA regsConst<>+176(SB)/8, $0x0000000000000000
DATA regsConst<>+184(SB)/8, $0x0000000000000000
DATA regsConst<>+192(SB)/8, $0x0000000000000000
DATA regsConst<>+200(SB)/8, $0x0000000000000000
DATA regsConst<>+208(SB)/8, $0x0000000000000000
DATA regsConst<>+216(SB)/8, $0x0000000000000000
DATA regsConst<>+224(SB)/8, $0x0000000000000000
DATA regsConst<>+232(SB)/8, $0x0000000000000000
DATA regsConst<>+240(SB)/8, $0x0000000000000000
DATA regsConst<>+248(SB)/8, $0xffff000000000000
GLOBL regsConst<>(SB), RODATA|NOPTR, $256

// func vectorExtendAVX512(st *fusedState)
//
// The AVX2 routine plus the register mode for bands in a 64- or 128-lane
// frame (FUSED_AVX512 in the body): EVEX-encoded there, in Z0..Z6, Z8..Z13,
// Z16..Z29, Z31 and K1..K7. The VEX blocks read the constants in Y8..Y12
// and never touch Z16..Z31.
#define FUSED_AVX512
TEXT ·vectorExtendAVX512(SB), NOSPLIT, $0-8
#include "extend_vector_amd64.h"
#undef FUSED_AVX512
#undef FUSED_AVX2
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

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
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
	ANDL $0xE6, AX        // XCR0: XMM, YMM, opmask, ZMM0-15 upper and ZMM16-31 state
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0xC0010128, BX  // leaf 7 EBX: BMI1 (3), AVX2 (5), BMI2 (8), AVX512F (16), AVX512BW (30), AVX512VL (31)
	CMPL BX, $0xC0010128
	JNE  no
	MOVB $1, ret+0(FP)
no:
	RET
