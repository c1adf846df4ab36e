// Whole-row anti-diagonal kernels: SSE2 (8 lanes) and AVX2 (16 lanes). See
// vectorRowPortable (extend_vector.go) for the semantics both reproduce
// bit-for-bit, and vector_row_amd64.go for the Go declarations.
//
// Per block of L cells at offset k (SSE2 mnemonics; AVX2 is the same
// dataflow, VEX-encoded, on YMM):
//
//	eq    = PCMPEQB(q bytes, t bytes)          byte 0xFF where equal
//	mask  = PUNPCKLBW(eq, eq)                  widened to words
//	sub   = d3 + mism + (mask & (match-mism))  PADDW, exact by rebase
//	g     = PMAXSW(up, left) + gap             two overlapping loads of
//	                                           d2m1 replace the lane shift
//	s     = PMAXSW(sub, g)
//	prune = PCMPGTW(thr, s)                    s < threshold, strict
//	s'    = ((s - ninf) &^ prune) + ninf       pruned lanes hold ninf
//	rowmax= PMAXSW(rowmax, s')
//
// Blocks run from k = 0 while k <= kn-L; if kn is not a multiple of L one
// more block runs at k = kn-L, overlapping its predecessor. out aliases no
// source, so the recomputed cells store the same values again, and nothing
// outside [0, kn) (d2m1: [0, kn]) is touched. After the blocks: horizontal
// max, and only if it beats best, a PCMPEQW/PMOVMSKB/BSF walk of out (same
// block order) for the first cell holding it.
//
// All adds use wrapping PADDW/PSUBW: the rebase invariant keeps live lanes
// in (-8193, 16638) and sentinel-sourced lanes above -29256, so no int16
// overflow is reachable in sub, g or s (asserted by the fuzz differential);
// s - ninf may wrap and is undone exactly by the + ninf.
//
// Constants block (rowConsts): 32-byte rows match-mism, mism, gap, ninf.

#include "textflag.h"

// func vectorRowSSE2(d3, d2m1, out *int16, qs, ts *byte, kn int, c *rowConsts, thr, best int16) (nb int16, pos int)
TEXT ·vectorRowSSE2(SB), NOSPLIT, $0-80
	MOVQ d3+0(FP), SI
	MOVQ d2m1+8(FP), DI
	MOVQ out+16(FP), R8
	MOVQ qs+24(FP), R9
	MOVQ ts+32(FP), R10
	MOVQ kn+40(FP), CX
	MOVQ c+48(FP), AX
	MOVOU 0(AX), X8   // match - mismatch
	MOVOU 32(AX), X9  // mismatch
	MOVOU 64(AX), X10 // gap
	MOVOU 96(AX), X12 // negInf16
	MOVWLZX thr+56(FP), AX
	MOVQ AX, X11
	PSHUFLW $0x00, X11, X11
	PUNPCKLQDQ X11, X11 // X11 = threshold in every lane

	MOVO X12, X13     // X13 = running row maximum
	XORQ R11, R11     // R11 = k, the block's first cell
	LEAQ -8(CX), R12  // R12 = kn-8, the last block's first cell

block:
	MOVQ (R9)(R11*1), X0  // 8 query bases
	MOVQ (R10)(R11*1), X1 // 8 target bases
	PCMPEQB X1, X0
	PUNPCKLBW X0, X0      // word l = 0xFFFF iff bases l equal
	PAND X8, X0
	MOVOU (SI)(R11*2), X3 // d3 diagonal sources
	PADDW X9, X3
	PADDW X0, X3          // X3 = d3 + substitution add

	// Gap sources: up lanes are d2m1[k..k+7], left lanes d2m1[k+1..k+8].
	MOVOU (DI)(R11*2), X4
	MOVOU 2(DI)(R11*2), X5
	PMAXSW X5, X4
	PADDW X10, X4
	PMAXSW X4, X3         // X3 = cell score s

	// X-drop prune: lanes strictly below threshold become negInf16.
	MOVO X11, X6
	PCMPGTW X3, X6        // X6 = 0xFFFF where threshold > s
	PSUBW X12, X3
	PANDN X3, X6
	PADDW X12, X6         // X6 = clamped s

	MOVOU X6, (R8)(R11*2)
	PMAXSW X6, X13

	ADDQ $8, R11
	CMPQ R11, R12
	JLE  block            // another full block fits
	CMPQ R11, CX
	JGE  reduce           // k == kn: the row is done
	MOVQ R12, R11
	JMP  block            // the overlapped final block

reduce:
	PSHUFD $0x4E, X13, X0
	PMAXSW X0, X13
	PSHUFD $0xB1, X13, X0
	PMAXSW X0, X13
	PSHUFLW $0xB1, X13, X0
	PMAXSW X0, X13        // lane 0 = row maximum
	MOVQ X13, AX
	MOVWQSX AX, AX
	MOVWQSX best+58(FP), DX
	CMPQ AX, DX
	JLE  unimproved

	PSHUFLW $0x00, X13, X13
	PUNPCKLQDQ X13, X13   // row maximum in every lane
	XORQ R11, R11
scan:
	MOVOU (R8)(R11*2), X0
	PCMPEQW X13, X0
	PMOVMSKB X0, BX
	TESTL BX, BX
	JNZ  found
	ADDQ $8, R11
	CMPQ R11, R12
	JLE  scan
	MOVQ R12, R11         // it is in the overlapped final block
	JMP  scan
found:
	BSFL BX, BX
	SHRL $1, BX
	ADDQ BX, R11
	MOVW AX, nb+64(FP)
	MOVQ R11, pos+72(FP)
	RET
unimproved:
	MOVW DX, nb+64(FP)
	MOVQ $-1, pos+72(FP)
	RET

// func vectorRowAVX2(d3, d2m1, out *int16, qs, ts *byte, kn int, c *rowConsts, thr, best int16) (nb int16, pos int)
//
// Every vector instruction here is VEX-encoded and the routine ends in
// VZEROUPPER: one legacy-SSE instruction while the upper YMM halves are
// dirty costs a state transition per use (measured 7x on the whole kernel).
TEXT ·vectorRowAVX2(SB), NOSPLIT, $0-80
	MOVQ d3+0(FP), SI
	MOVQ d2m1+8(FP), DI
	MOVQ out+16(FP), R8
	MOVQ qs+24(FP), R9
	MOVQ ts+32(FP), R10
	MOVQ kn+40(FP), CX
	MOVQ c+48(FP), AX
	VMOVDQU 0(AX), Y8
	VMOVDQU 32(AX), Y9
	VMOVDQU 64(AX), Y10
	VMOVDQU 96(AX), Y12
	VPBROADCASTW thr+56(FP), Y11

	VMOVDQA Y12, Y13
	XORQ R11, R11
	LEAQ -16(CX), R12

block:
	VMOVDQU (R9)(R11*1), X0
	VPCMPEQB (R10)(R11*1), X0, X0
	VPMOVSXBW X0, Y0
	VPAND Y8, Y0, Y0
	VPADDW (SI)(R11*2), Y9, Y3
	VPADDW Y0, Y3, Y3

	VMOVDQU (DI)(R11*2), Y4
	VPMAXSW 2(DI)(R11*2), Y4, Y4
	VPADDW Y10, Y4, Y4
	VPMAXSW Y4, Y3, Y3

	VPCMPGTW Y3, Y11, Y6 // Y6 = 0xFFFF where threshold > s
	VPSUBW Y12, Y3, Y3
	VPANDN Y3, Y6, Y6
	VPADDW Y12, Y6, Y6

	VMOVDQU Y6, (R8)(R11*2)
	VPMAXSW Y6, Y13, Y13

	ADDQ $16, R11
	CMPQ R11, R12
	JLE  block
	CMPQ R11, CX
	JGE  reduce
	MOVQ R12, R11
	JMP  block

reduce:
	VEXTRACTI128 $1, Y13, X0
	VPMAXSW X0, X13, X13
	VPSHUFD $0x4E, X13, X0
	VPMAXSW X0, X13, X13
	VPSHUFD $0xB1, X13, X0
	VPMAXSW X0, X13, X13
	VPSHUFLW $0xB1, X13, X0
	VPMAXSW X0, X13, X13
	VMOVQ X13, AX
	MOVWQSX AX, AX
	MOVWQSX best+58(FP), DX
	CMPQ AX, DX
	JLE  unimproved

	VPBROADCASTW X13, Y13
	XORQ R11, R11
scan:
	VPCMPEQW (R8)(R11*2), Y13, Y0
	VPMOVMSKB Y0, BX
	TESTL BX, BX
	JNZ  found
	ADDQ $16, R11
	CMPQ R11, R12
	JLE  scan
	MOVQ R12, R11
	JMP  scan
found:
	BSFL BX, BX
	SHRL $1, BX
	ADDQ BX, R11
	MOVW AX, nb+64(FP)
	MOVQ R11, pos+72(FP)
	VZEROUPPER
	RET
unimproved:
	MOVW DX, nb+64(FP)
	MOVQ $-1, pos+72(FP)
	VZEROUPPER
	RET

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
