// The body of the fused routine, included once per instruction set by
// extend_vector_amd64.s, which defines the vector pseudo-mnemonics used
// here (LOADU, MAXW, ...) as legacy SSE2 instructions or as their VEX
// forms, the latter with FUSED_AVX2 defined, and for the AVX-512 routine
// FUSED_AVX512 as well: the register mode, written in EVEX mnemonics.
// Two-operand forms throughout: OP(a, x) is x = x OP a.

	MOVQ st+0(FP), DI
	MOVQ q+16(FP), R11
	MOVQ rt+32(FP), R12

	MOVQ fusedState_match(DI), AX
	SUBQ fusedState_mismatch(DI), AX
	SPLATW(AX, X8, Y8)
	MOVQ fusedState_mismatch(DI), AX
	SPLATW(AX, X9, Y9)
	MOVQ fusedState_gap(DI), AX
	SPLATW(AX, X10, Y10)
	MOVQ $const_negInf16, AX
	SPLATW(AX, X12, Y12)

#ifdef FUSED_AVX512
	// The same constants at full width, for the register mode; the VEX
	// blocks read their low halves.
	MOVQ fusedState_match(DI), AX
	SUBQ fusedState_mismatch(DI), AX
	VPBROADCASTW AX, Z8
	MOVQ fusedState_mismatch(DI), AX
	VPBROADCASTW AX, Z9
	MOVQ fusedState_gap(DI), AX
	VPBROADCASTW AX, Z10
	MOVQ $const_negInf16, AX
	VPBROADCASTW AX, Z12
	MOVQ fusedState_x(DI), AX
	VPBROADCASTW AX, Z27
	VMOVDQU64 regsConst<>+0(SB), Z24
	VMOVDQU64 regsConst<>+64(SB), Z25
	VMOVDQU64 regsConst<>+128(SB), Z28
	VMOVDQU64 regsConst<>+192(SB), Z29
	// q is read from its padded copy.
	MOVQ qp+48(FP), R11
#endif

	MOVQ fusedState_d(DI), R13
	MOVQ fusedState_lo(DI), R14
	MOVQ fusedState_hi(DI), R15
	MOVQ fusedState_best(DI), BX
	ADDQ fusedState_n(DI), R12
	SUBQ R13, R12

	// Buffer bases by role: Workspace.v[phase] is being written, the next
	// (mod 3) holds the previous anti-diagonal, the one after that the
	// anti-diagonal before.
	MOVQ diags+8(FP), SI
	MOVQ fusedState_phase(DI), AX
	XORL DX, DX
	LEAQ (AX)(AX*2), CX
	MOVQ (SI)(CX*8), CX
	GPRTOX(CX, X14)
	INCQ AX
	CMPQ AX, $3
	CMOVQEQ DX, AX
	LEAQ (AX)(AX*2), CX
	MOVQ (SI)(CX*8), R9
	GPRTOX(R9, X15)
	INCQ AX
	CMPQ AX, $3
	CMOVQEQ DX, AX
	LEAQ (AX)(AX*2), CX
	MOVQ (SI)(CX*8), R10
	GPRTOX(R10, X7)
	// Cell i of a carried anti-diagonal is slot i-org of its buffer.
	MOVQ fusedState_org2(DI), AX
	SHLQ $1, AX
	SUBQ AX, R9
	MOVQ fusedState_org3(DI), AX
	SHLQ $1, AX
	SUBQ AX, R10

#ifdef FUSED_AVX512
	// The first band of the call may already fit the register frame: at
	// d = 1 it is two cells wide.
	MOVQ R15, AX
	SUBQ R14, AX
	INCQ AX
	CMPQ AX, $const_regReload
	JLE  reload
#endif

loop:
	// rt mirrors t in reverse, filled one base per anti-diagonal.
	CMPQ R13, fusedState_n(DI)
	JGT  filled
	MOVQ t+24(FP), AX
	MOVBLZX -1(AX)(R13*1), AX
	MOVB AX, (R12)

filled:
#ifdef FUSED_AVX512
	// So is the padded copy of q, in order: q[d-1], the last base a cell
	// of d can compare.
	CMPQ R13, fusedState_m(DI)
	JGT  qfilled
	MOVQ q+16(FP), AX
	MOVBLZX -1(AX)(R13*1), AX
	MOVB AX, -1(R11)(R13*1)

qfilled:
#endif
	// The band arrives inside the matrix (plant and the register mode's
	// trim clip it); past d = m+n it is empty.
	CMPQ R14, R15
	JGT  done

	CMPQ BX, $const_vectorRebaseAt
	JGE  pause
	MOVQ fusedState_cells(DI), AX
	CMPQ AX, fusedState_limit(DI)
	JGE  pause

	// Cells and the widest band; the trace's entry for d is trace[d-1].
	MOVQ R15, AX
	SUBQ R14, AX
	INCQ AX // width
	ADDQ AX, fusedState_cells(DI)
	CMPQ AX, fusedState_maxBand(DI)
	JLE  traced
	MOVQ AX, fusedState_maxBand(DI)
traced:
	MOVQ trace+40(FP), DX
	TESTQ DX, DX
	JZ   rows
	MOVL AX, -4(DX)(R13*4)

rows:
#ifdef FUSED_AVX512
	CMPQ fusedState_lanes(DI), $0
	JNE  regs
#endif
	// The anti-diagonal being written is slot i-(lo-1) of its buffer.
	XTOGPR(X14, R8)
	LEAQ 2(R8), R8
	SUBQ R14, R8
	SUBQ R14, R8

	MOVQ BX, AX
	SUBQ fusedState_x(DI), AX
	MOVQ AX, fusedState_thr(DI)
	SPLATW(AX, X11, Y11)

	// Border i = 0, cell (0, d): a gap from (0, d-1).
	TESTQ R14, R14
	JNZ   interior
	MOVWQSX (R9), AX
	ADDQ fusedState_gap(DI), AX
	CMPQ AX, fusedState_thr(DI)
	JGE  top_live
	MOVQ $const_negInf16, AX
	JMP  top_store
top_live:
	CMPQ AX, BX
	JLE  top_store
	MOVQ AX, BX
	MOVQ $0, fusedState_bestI(DI)
	MOVQ R13, fusedState_bestJ(DI)
top_store:
	MOVW AX, (R8)

interior:
	// Cells i in [max(lo,1), min(hi,d-1)]: SI the first, CX the last.
	MOVQ R14, SI
	MOVQ $1, AX
	CMPQ SI, AX
	CMOVQLT AX, SI
	LEAQ -1(R13), CX
	CMPQ CX, R15
	CMOVQGT R15, CX
	MOVQ CX, AX
	SUBQ SI, AX // kn-1
	JLT  left
	CMPQ AX, $7
	JLT  narrow
	MOVQ SI, DX // the row's first cell, for the position walk
#ifdef FUSED_AVX2
	CMPQ AX, $31
	JGE  rows16 // 32 cells or more
#endif

	SUBQ $7, CX // the last block's first cell
	COPY(X12, X13) // running row maximum
block8:
	LOADQ(-1(R11)(SI*1), X0)
	LOADQ((R12)(SI*1), X1)
	EQB(X1, X0)
	UNPCKLBW(X0, X0) // word l = 0xFFFF iff bases l equal
	AND(X8, X0)
	LOADU(-2(R10)(SI*2), X3)
	ADDW(X9, X3)
	ADDW(X0, X3) // X3 = d3 + substitution add
	LOADU(-2(R9)(SI*2), X4)
	LOADU((R9)(SI*2), X5)
	MAXW(X5, X4)
	ADDW(X10, X4)
	MAXW(X4, X3) // X3 = cell score s
	COPY(X11, X6)
	GTW(X3, X6) // X6 = 0xFFFF where threshold > s
	SUBW(X12, X3)
	ANDN(X3, X6)
	ADDW(X12, X6) // X6 = clamped s
	STOREU(X6, (R8)(SI*2))
	MAXW(X6, X13)
	ADDQ $8, SI
	CMPQ SI, CX
	JLE  block8 // another full block fits
	LEAQ 8(CX), AX
	CMPQ SI, AX
	JGE  reduce // past the last cell: the row is done
	MOVQ CX, SI
	JMP  block8 // the overlapped final block

#ifdef FUSED_AVX2
rows16:
	SUBQ $15, CX
	VMOVDQA Y12, Y13
block16:
	VMOVDQU -1(R11)(SI*1), X0
	VPCMPEQB (R12)(SI*1), X0, X0
	VPMOVSXBW X0, Y0
	VPAND Y8, Y0, Y0
	VPADDW -2(R10)(SI*2), Y9, Y3
	VPADDW Y0, Y3, Y3
	VMOVDQU -2(R9)(SI*2), Y4
	VPMAXSW (R9)(SI*2), Y4, Y4
	VPADDW Y10, Y4, Y4
	VPMAXSW Y4, Y3, Y3
	VPCMPGTW Y3, Y11, Y6
	VPSUBW Y12, Y3, Y3
	VPANDN Y3, Y6, Y6
	VPADDW Y12, Y6, Y6
	VMOVDQU Y6, (R8)(SI*2)
	VPMAXSW Y6, Y13, Y13
	ADDQ $16, SI
	CMPQ SI, CX
	JLE  block16
	LEAQ 16(CX), AX
	CMPQ SI, AX
	JGE  fold16
	MOVQ CX, SI
	JMP  block16
fold16:
	VEXTRACTI128 $1, Y13, X0
	VPMAXSW X0, X13, X13
	ADDQ $8, CX // the walk below steps 8 lanes
#endif

reduce:
	// X13 lanes -> row maximum; DX the row's first cell, CX its last
	// 8-lane block's.
	SHUFD($0x4E, X13, X0)
	MAXW(X0, X13)
	SHUFD($0xB1, X13, X0)
	MAXW(X0, X13)
	SHUFLW($0xB1, X13, X0)
	MAXW(X0, X13)
	XTOGPR(X13, AX)
	MOVWQSX AX, AX
	CMPQ AX, BX
	JLE  left
	MOVQ AX, BX
	SHUFLW($0x00, X13, X13)
	UNPCKLQDQ(X13, X13)
	MOVQ DX, SI
walk:
	LOADU((R8)(SI*2), X0)
	EQW(X13, X0)
	MOVMSKB(X0, AX)
	TESTL AX, AX
	JNZ  found
	ADDQ $8, SI
	CMPQ SI, CX
	JLE  walk
	MOVQ CX, SI // it is in the overlapped final block
	JMP  walk
found:
	BSFL AX, AX
	SHRL $1, AX
	ADDQ AX, SI
	MOVQ SI, fusedState_bestI(DI)
	MOVQ R13, AX
	SUBQ SI, AX
	MOVQ AX, fusedState_bestJ(DI)
	JMP  left

narrow:
	MOVQ CX, fusedState_uHi(DI)
cell:
	MOVBLZX -1(R11)(SI*1), AX
	CMPB AX, (R12)(SI*1)
	MOVQ fusedState_mismatch(DI), AX
	CMOVQEQ fusedState_match(DI), AX
	MOVWQSX -2(R10)(SI*2), DX
	ADDQ DX, AX // substitution
	MOVWQSX -2(R9)(SI*2), DX // up
	MOVWQSX (R9)(SI*2), CX // left
	CMPQ DX, CX
	CMOVQLT CX, DX
	ADDQ fusedState_gap(DI), DX
	CMPQ AX, DX
	CMOVQLT DX, AX // s
	CMPQ AX, BX
	JLE  cell_prune
	MOVQ AX, BX
	MOVQ SI, fusedState_bestI(DI)
	MOVQ R13, CX
	SUBQ SI, CX
	MOVQ CX, fusedState_bestJ(DI)
cell_prune:
	CMPQ AX, fusedState_thr(DI)
	JGE  cell_store
	MOVQ $const_negInf16, AX
cell_store:
	MOVW AX, (R8)(SI*2)
	INCQ SI
	CMPQ SI, fusedState_uHi(DI)
	JLE  cell

left:
	// Border j = 0, cell (d, 0): a gap from (d-1, 0), after the interior
	// so that ties keep the smallest i.
	CMPQ R15, R13
	JNE  trim
	MOVWQSX -2(R9)(R13*2), AX
	ADDQ fusedState_gap(DI), AX
	CMPQ AX, fusedState_thr(DI)
	JGE  left_live
	MOVQ $const_negInf16, AX
	JMP  left_store
left_live:
	CMPQ AX, BX
	JLE  left_store
	MOVQ AX, BX
	MOVQ R13, fusedState_bestI(DI)
	MOVQ $0, fusedState_bestJ(DI)
left_store:
	MOVW AX, (R8)(R13*2)

trim:
	// SI = first surviving cell, DX = last (Alg. 1 lines 10-15).
	MOVQ R14, SI
	MOVQ R15, AX
	SUBQ R14, AX
	CMPQ AX, $7
	JLT  trim_narrow // fewer than 8 cells
	LEAQ -7(R15), CX // the last block's first cell
front:
	LOADU((R8)(SI*2), X0)
	EQW(X12, X0)
	MOVMSKB(X0, AX)
	XORL $0xFFFF, AX // bit pairs of surviving cells
	JNZ  front_found
	ADDQ $8, SI
	CMPQ SI, CX
	JLE  front
	LEAQ 8(CX), AX
	CMPQ SI, AX
	JGE  emptied
	MOVQ CX, SI
	JMP  front
front_found:
	BSFL AX, AX
	SHRL $1, AX
	ADDQ AX, SI
	MOVQ CX, DX
back:
	LOADU((R8)(DX*2), X0)
	EQW(X12, X0)
	MOVMSKB(X0, AX)
	XORL $0xFFFF, AX
	JNZ  back_found
	SUBQ $8, DX
	CMPQ DX, R14
	JGE  back
	MOVQ R14, DX // the overlapped first block; SI proves a survivor
	JMP  back
back_found:
	BSRL AX, AX
	SHRL $1, AX
	ADDQ AX, DX
	JMP  plant

trim_narrow:
	CMPW (R8)(SI*2), $const_negInf16
	JNE  trim_back
	INCQ SI
	CMPQ SI, R15
	JLE  trim_narrow
	JMP  emptied
trim_back:
	MOVQ R15, DX
trim_back_loop:
	CMPW (R8)(DX*2), $const_negInf16
	JNE  plant
	DECQ DX
	JMP  trim_back_loop

plant:
	// Sentinels around the survivors; rotate the buffers (the written one
	// becomes the previous, the previous the one before, and the one
	// before is written next); the next band opens one wider at the top.
	MOVW $const_negInf16, -2(R8)(SI*2)
	MOVW $const_negInf16, 2(R8)(DX*2)
	MOVQ R9, R10
	MOVQ R8, R9
	COPY(X7, X0)
	COPY(X15, X7)
	COPY(X14, X15)
	COPY(X0, X14)
	LEAQ 1(DX), R15
	MOVQ SI, R14
	INCQ R13
	DECQ R12
	// Clip the next band to the matrix: lo = max(lo, d-n), hi = min(hi, m).
	// hi <= d holds already (the band opens one cell per anti-diagonal).
	MOVQ R13, AX
	SUBQ fusedState_n(DI), AX
	CMPQ R14, AX
	CMOVQLT AX, R14
	MOVQ fusedState_m(DI), AX
	CMPQ R15, AX
	CMOVQGT AX, R15
#ifdef FUSED_AVX512
	MOVQ R15, AX
	SUBQ R14, AX
	JLT  loop // empty: the loop top ends the extension
	INCQ AX
	CMPQ AX, $const_regReload
	JLE  reload
#endif
	JMP  loop

#ifdef FUSED_AVX512
// LANES(k0, k1, k2, k3) sets the mask of lanes [AX, CX) in k0 (lanes
// 0..31) to k3 (96..127), dropping the lanes outside the frame (from 0
// to fusedState.lanes-1). Clobbers AX, CX, DX and SI.
#define LANES(k0, k1, k2, k3) \
	CMPQ CX, fusedState_lanes(DI); \
	CMOVQGT fusedState_lanes(DI), CX; \
	XORL DX, DX; \
	CMPQ AX, DX; \
	CMOVQLT DX, AX; \
	CMPQ CX, DX; \
	CMOVQLT DX, CX; \
	MOVQ $-1, SI; \
	BZHIQ CX, SI, DX; \
	BZHIQ AX, SI, SI; \
	ANDNQ DX, SI, DX; \
	KMOVD DX, k0; \
	SHRQ $32, DX; \
	KMOVD DX, k1; \
	XORL DX, DX; \
	MOVQ $-1, SI; \
	SUBQ $64, CX; \
	CMOVQLT DX, CX; \
	SUBQ $64, AX; \
	CMOVQLT DX, AX; \
	BZHIQ CX, SI, CX; \
	BZHIQ AX, SI, AX; \
	ANDNQ CX, AX, CX; \
	KMOVD CX, k2; \
	SHRQ $32, CX; \
	KMOVD CX, k3

// LOADROW(r, z0, z1, z2, z3) loads the 128 lanes at r under K1..K4 into
// z0..z3, the sentinel in every other lane; STOREROW stores them.
#define LOADROW(r, z0, z1, z2, z3) \
	VMOVDQA64 Z12, z0; \
	VMOVDQU16 (r), K1, z0; \
	VMOVDQA64 Z12, z1; \
	VMOVDQU16 64(r), K2, z1; \
	VMOVDQA64 Z12, z2; \
	VMOVDQU16 128(r), K3, z2; \
	VMOVDQA64 Z12, z3; \
	VMOVDQU16 192(r), K4, z3

#define STOREROW(r, z0, z1, z2, z3) \
	VMOVDQU16 z0, K1, (r); \
	VMOVDQU16 z1, K2, 64(r); \
	VMOVDQU16 z2, K3, 128(r); \
	VMOVDQU16 z3, K4, 192(r)

// SWAPROWS exchanges the two carried rows, Z16..Z19 and Z20..Z23.
#define SWAPROWS \
	VMOVDQA64 Z16, Z0; \
	VMOVDQA64 Z17, Z1; \
	VMOVDQA64 Z18, Z2; \
	VMOVDQA64 Z19, Z3; \
	VMOVDQA64 Z20, Z16; \
	VMOVDQA64 Z21, Z17; \
	VMOVDQA64 Z22, Z18; \
	VMOVDQA64 Z23, Z19; \
	VMOVDQA64 Z0, Z20; \
	VMOVDQA64 Z1, Z21; \
	VMOVDQA64 Z2, Z22; \
	VMOVDQA64 Z3, Z23

// CELLS(qo, to, a, b, r, k, g) computes lanes 32j..32j+31 of the
// anti-diagonal, qo = 32j-1 and to = 32j the offsets of their bases in
// the q and t windows: a the previous anti-diagonal's register, r the
// same shifted one lane (the other gap source), b the register of the one
// before, which receives the new cells, k the band and g the survivors.
#define CELLS(qo, to, a, b, r, k, g) \
	VPMAXSW a, r, r; \
	VPADDW Z10, r, r; \
	VPADDW Z9, b, Z13; \
	VMOVDQU qo(R11)(R8*1), Y11; \
	VPCMPEQB to(R12)(R8*1), Y11, K5; \
	VPADDW Z8, Z13, K5, Z13; \
	VPMAXSW r, Z13, Z13; \
	VPCMPW $5, Z26, Z13, k, K6; \
	VPBLENDMW Z13, Z12, K6, b; \
	KMOVD K6, g

// ROT(i, a, r) rotates the 32 lanes of a one lane by the VPERMW index i
// into r; FIX(mask, a, r) replaces the lane of r that mask selects by a's
// (the lane the rotation brought in from the wrong end).
#define ROT(i, a, r) VPERMW a, i, r
#define FIX(mask, a, r) VPTERNLOGQ $0xd8, mask, a, r

// ROWMAX2(b0, b1) and ROWMAX4(b0, b1, b2, b3) leave in K7 the lanes of the
// new anti-diagonal's maximum, in Z4, that beat best: none, unless the row
// moves best.
#define ROWMAX2(b0, b1) \
	VPMAXSW b0, b1, Z4; \
	VPCMPW $6, Z31, Z4, K7; \
	KORTESTD K7, K7

#define ROWMAX4(b0, b1, b2, b3) \
	VPMAXSW b0, b1, Z4; \
	VPMAXSW b2, b3, Z5; \
	VPMAXSW Z5, Z4, Z4; \
	VPCMPW $6, Z31, Z4, K7; \
	KORTESTD K7, K7

// FOLD folds the row maximum in Z4 to every lane: the new best (Z31,
// BX) and the next threshold (Z26). BEST(b0, b1, b2, b3) and BEST2(b0,
// b1) add the first lane holding it (bestI, bestJ) among four and two
// registers. A pruned cell is below the threshold and so below best: only
// a survivor can hold it.
#define FOLD \
	VSHUFI64X2 $0x4E, Z4, Z4, Z5; \
	VPMAXSW Z5, Z4, Z4; \
	VSHUFI64X2 $0xB1, Z4, Z4, Z5; \
	VPMAXSW Z5, Z4, Z4; \
	VPSHUFD $0x4E, Z4, Z5; \
	VPMAXSW Z5, Z4, Z4; \
	VPSHUFD $0xB1, Z4, Z5; \
	VPMAXSW Z5, Z4, Z4; \
	VPROLD $16, Z4, Z5; \
	VPMAXSW Z5, Z4, Z31; \
	VPSUBW Z27, Z31, Z26; \
	VMOVD X31, AX; \
	MOVWQSX AX, BX

#define BEST(b0, b1, b2, b3) \
	FOLD; \
	VPCMPEQW Z31, b0, K5; \
	VPCMPEQW Z31, b1, K6; \
	KMOVD K5, AX; \
	KMOVD K6, SI; \
	SHLQ $32, SI; \
	ORQ  SI, AX; \
	VPCMPEQW Z31, b2, K5; \
	VPCMPEQW Z31, b3, K6; \
	KMOVD K5, R14; \
	KMOVD K6, SI; \
	SHLQ $32, SI; \
	ORQ  SI, R14; \
	TZCNTQ AX, SI; \
	TZCNTQ R14, R15; \
	ADDQ $64, R15; \
	TESTQ AX, AX; \
	CMOVQEQ R15, SI; \
	ADDQ R8, SI; \
	MOVQ SI, fusedState_bestI(DI); \
	MOVQ R13, AX; \
	SUBQ SI, AX; \
	MOVQ AX, fusedState_bestJ(DI)

#define BEST2(b0, b1) \
	FOLD; \
	VPCMPEQW Z31, b0, K5; \
	VPCMPEQW Z31, b1, K6; \
	KMOVD K5, AX; \
	KMOVD K6, SI; \
	SHLQ $32, SI; \
	ORQ  SI, AX; \
	TZCNTQ AX, SI; \
	ADDQ R8, SI; \
	MOVQ SI, fusedState_bestI(DI); \
	MOVQ R13, AX; \
	SUBQ SI, AX; \
	MOVQ AX, fusedState_bestJ(DI)

reload:
	// Memory to register mode before anti-diagonal d, AX = the width of
	// its band <= regReload: the cells d reads of the two carried rows (a2
	// [A, B] and a3 [A, B-1], with A = max(lo-1, 0) and B = min(hi, d-1))
	// are loaded into a frame F_d that centers the band, in lanes that
	// hold the sentinel everywhere else. The buffers hold those cells:
	// they lie within what d-1 read and wrote. The frame is 64 lanes for a
	// band of at most regNarrow cells, 128 for a wider one.
	MOVQ $64, CX
	CMPQ AX, $const_regNarrow
	JLE  reload_frame
	MOVQ $128, CX
	INCQ fusedState_toWide(DI)
reload_frame:
	MOVQ CX, fusedState_lanes(DI)
	SUBQ AX, CX
	SHRQ $1, CX
	MOVQ R14, R8
	SUBQ CX, R8 // F_d = lo - (lanes-width)/2
	LEAQ -1(R14), SI
	XORL CX, CX
	CMPQ SI, CX
	CMOVQLT CX, SI // A
	LEAQ -1(R13), CX
	CMPQ CX, R15
	CMOVQGT R15, CX // B
	SUBQ R8, SI
	SUBQ R8, CX
	MOVQ SI, fusedState_thr(DI) // A - F_d
	MOVQ CX, fusedState_uHi(DI) // B - F_d
	// a3 in frame F_{d-2} = F_d - 1: lanes [A-F_d+1, B-F_d+1).
	LEAQ 1(SI), AX
	INCQ CX
	LANES(K1, K2, K3, K4)
	LEAQ -2(R10)(R8*2), AX
	LOADROW(AX, Z20, Z21, Z22, Z23)
	// a2 in frame F_{d-1} = F_d - e, e = 1 if d is even: lanes
	// [A-F_d+e, B-F_d+e+1).
	MOVQ R13, SI
	NOTQ SI
	ANDQ $1, SI
	LEAQ (R9)(R8*2), R9
	SUBQ SI, R9
	SUBQ SI, R9
	MOVQ fusedState_thr(DI), AX
	MOVQ fusedState_uHi(DI), CX
	ADDQ SI, AX
	LEAQ 1(CX)(SI*1), CX
	LANES(K1, K2, K3, K4)
	LOADROW(R9, Z16, Z17, Z18, Z19)
	// Odd d reads a2 from Z16..Z19, even d from Z20..Z23.
	TESTQ $1, R13
	JNZ  reloaded
	SWAPROWS
reloaded:
	VPBROADCASTW BX, Z31
	VPSUBW Z27, Z31, Z26 // best - x
	INCQ fusedState_toRegs(DI)
	SUBQ R13, fusedState_regRows(DI)
	JMP  regs_band

regs:
	// One anti-diagonal in registers, its band in K1..K4 (K1 and K2 in a
	// 64-lane frame). Lane l holds cell F_d + l, and F_{d-2} = F_d - 1, so
	// the substitution source of lane l is lane l of a3, and its gap
	// sources are lanes l-1 and l of a2 when d is odd (F_{d-1} = F_d),
	// lanes l and l+1 when it is even. The rows take turns in Z16..Z19
	// and Z20..Z23: odd d reads a2 from the first and a3 from the second,
	// and writes the new row over a3; a 64-lane frame uses the first two
	// registers of each. Byte l of the q window at q[F_d-1] and of the t
	// window at rt[n-d+F_d] are the bases of lane l.
	//
	// a2 moves one lane up for odd d: each register rotated, then lane 0
	// taken from the register below (lane 31 rotated into its lane 0),
	// the sentinel for the first; one lane down for even d, lane 31 taken
	// from the register above, the sentinel for the last.
	CMPQ fusedState_lanes(DI), $64
	JNE  regs128
	TESTQ $1, R13
	JZ   regs64_even
	ROT(Z24, Z16, Z0)
	ROT(Z24, Z17, Z1)
	FIX(Z28, Z0, Z1)
	FIX(Z28, Z12, Z0)
	CELLS(-1, 0, Z16, Z20, Z0, K1, R9)
	CELLS(31, 32, Z17, Z21, Z1, K2, CX)
	ROWMAX2(Z20, Z21)
	JZ   regs_trim64
	BEST2(Z20, Z21)
	JMP  regs_trim64
regs64_even:
	ROT(Z25, Z20, Z0)
	ROT(Z25, Z21, Z1)
	FIX(Z29, Z1, Z0)
	FIX(Z29, Z12, Z1)
	CELLS(-1, 0, Z20, Z16, Z0, K1, R9)
	CELLS(31, 32, Z21, Z17, Z1, K2, CX)
	ROWMAX2(Z16, Z17)
	JZ   regs_trim64
	BEST2(Z16, Z17)
regs_trim64:
	// The survivors' ends give the next band, one cell longer at the top.
	SHLQ $32, CX
	ORQ  CX, R9
	JZ   emptied
	BSFQ R9, SI // the first survivor
	BSRQ R9, DX // the last
	JMP  regs_next
regs128:
	TESTQ $1, R13
	JZ   regs128_even
	ROT(Z24, Z16, Z0)
	ROT(Z24, Z17, Z1)
	ROT(Z24, Z18, Z2)
	ROT(Z24, Z19, Z3)
	FIX(Z28, Z2, Z3)
	FIX(Z28, Z1, Z2)
	FIX(Z28, Z0, Z1)
	FIX(Z28, Z12, Z0)
	CELLS(-1, 0, Z16, Z20, Z0, K1, R9)
	CELLS(31, 32, Z17, Z21, Z1, K2, CX)
	CELLS(63, 64, Z18, Z22, Z2, K3, R10)
	CELLS(95, 96, Z19, Z23, Z3, K4, DX)
	ROWMAX4(Z20, Z21, Z22, Z23)
	JZ   regs_trim128
	BEST(Z20, Z21, Z22, Z23)
	JMP  regs_trim128
regs128_even:
	ROT(Z25, Z20, Z0)
	ROT(Z25, Z21, Z1)
	ROT(Z25, Z22, Z2)
	ROT(Z25, Z23, Z3)
	FIX(Z29, Z1, Z0)
	FIX(Z29, Z2, Z1)
	FIX(Z29, Z3, Z2)
	FIX(Z29, Z12, Z3)
	CELLS(-1, 0, Z20, Z16, Z0, K1, R9)
	CELLS(31, 32, Z21, Z17, Z1, K2, CX)
	CELLS(63, 64, Z22, Z18, Z2, K3, R10)
	CELLS(95, 96, Z23, Z19, Z3, K4, DX)
	ROWMAX4(Z16, Z17, Z18, Z19)
	JZ   regs_trim128
	BEST(Z16, Z17, Z18, Z19)
regs_trim128:
	SHLQ $32, CX
	ORQ  CX, R9 // lanes 0..63
	SHLQ $32, DX
	ORQ  DX, R10 // lanes 64..127
	MOVQ R9, AX
	ORQ  R10, AX
	JZ   emptied
	TZCNTQ R9, SI
	TZCNTQ R10, AX
	ADDQ $64, AX
	TESTQ R9, R9
	CMOVQEQ AX, SI // the first survivor
	BSRQ R9, DX
	BSRQ R10, CX
	ADDQ $64, CX
	TESTQ R10, R10
	CMOVQNE CX, DX // the last
regs_next:
	// The next frame is F_{d+1} = F_d + e (e = 1 if d+1 is even).
	LEAQ (R8)(SI*1), R14
	LEAQ 1(R8)(DX*1), R15
	INCQ R13
	DECQ R12
	MOVQ R13, AX
	NOTQ AX
	ANDQ $1, AX
	ADDQ AX, R8
	// Clip the band to the matrix, as plant does.
	MOVQ R13, AX
	SUBQ fusedState_n(DI), AX
	CMPQ R14, AX
	CMOVQLT AX, R14
	MOVQ fusedState_m(DI), AX
	CMPQ R15, AX
	CMOVQGT AX, R15

regs_band:
	// Before anti-diagonal d: K1..K4 get its band, in lanes of F_d. An
	// empty band ends the extension at the loop top; a band that does not
	// fit the frame sends the rows to memory first.
	CMPQ R14, R15
	JGT  loop
	MOVQ R14, AX
	SUBQ R8, AX
	JLT  spill
	MOVQ R15, CX
	SUBQ R8, CX
	CMPQ CX, fusedState_lanes(DI)
	JGE  spill
	// The mask of lanes [AX, CX], inside the frame: lanes 0..63, and in a
	// 128-lane frame 64..127.
	INCQ CX
	MOVQ $-1, SI
	BZHIQ CX, SI, DX
	BZHIQ AX, SI, R9
	ANDNQ DX, R9, DX
	KMOVD DX, K1
	SHRQ $32, DX
	KMOVD DX, K2
	CMPQ fusedState_lanes(DI), $64
	JEQ  loop
	XORL R9, R9
	SUBQ $64, CX
	CMOVQLT R9, CX
	SUBQ $64, AX
	CMOVQLT R9, AX
	BZHIQ CX, SI, CX
	BZHIQ AX, SI, AX
	ANDNQ CX, AX, CX
	KMOVD CX, K3
	SHRQ $32, CX
	KMOVD CX, K4
	JMP  loop

spill:
	// Register to memory mode before d: the cells d reads of a2 (frame
	// F_d - e, e = 1 if d is even) and a3 (frame F_d - 1) go to their
	// buffers in the memory layout, cell A at slot 0 of each. A cell of
	// those ranges outside its row's frame is dead (every live cell
	// entered the frame with its band), and lies at one end of its range:
	// the sentinel stored first at both ends of each range stands for it.
	INCQ fusedState_toMem(DI)
	ADDQ R13, fusedState_regRows(DI)
	TESTQ $1, R13
	JNZ  spill_odd
	SWAPROWS // a2 in Z16..Z19, a3 in Z20..Z23
spill_odd:
	LEAQ -1(R14), SI
	XORL CX, CX
	CMPQ SI, CX
	CMOVQLT CX, SI // A
	LEAQ -1(R13), CX
	CMPQ CX, R15
	CMOVQGT R15, CX // B
	// The buffers: a2's is Workspace.v[phase+1], a3's v[phase+2].
	VMOVQ X15, R9
	SUBQ SI, R9
	SUBQ SI, R9
	VMOVQ X7, R10
	SUBQ SI, R10
	SUBQ SI, R10
	MOVW $const_negInf16, (R9)(SI*2)
	MOVW $const_negInf16, (R9)(CX*2)
	MOVW $const_negInf16, (R10)(SI*2)
	CMPQ CX, SI
	JEQ  spill_rows
	MOVW $const_negInf16, -2(R10)(CX*2)
spill_rows:
	SUBQ R8, SI
	SUBQ R8, CX
	MOVQ SI, fusedState_thr(DI) // A - F_d
	MOVQ CX, fusedState_uHi(DI) // B - F_d
	// a3: lanes [A-F_d+1, B-F_d+1).
	LEAQ 1(SI), AX
	INCQ CX
	LANES(K1, K2, K3, K4)
	LEAQ -2(R10)(R8*2), AX
	STOREROW(AX, Z20, Z21, Z22, Z23)
	// a2: lanes [A-F_d+e, B-F_d+e+1).
	MOVQ R13, SI
	NOTQ SI
	ANDQ $1, SI
	MOVQ fusedState_thr(DI), AX
	MOVQ fusedState_uHi(DI), CX
	ADDQ SI, AX
	LEAQ 1(CX)(SI*1), CX
	LANES(K1, K2, K3, K4)
	MOVQ R13, SI
	NOTQ SI
	ANDQ $1, SI
	LEAQ (R9)(R8*2), AX
	SUBQ SI, AX
	SUBQ SI, AX
	STOREROW(AX, Z16, Z17, Z18, Z19)
	MOVQ $0, fusedState_lanes(DI)
	JMP  loop
#undef LANES
#undef LOADROW
#undef STOREROW
#undef SWAPROWS
#undef ROT
#undef FIX
#undef CELLS
#undef ROWMAX2
#undef ROWMAX4
#undef BEST
#undef BEST2
#undef FOLD
#endif

emptied:
	INCQ R13 // band empty after d: X-drop termination
done:
	MOVB $1, fusedState_done(DI)
#ifdef FUSED_AVX512
	CMPQ fusedState_lanes(DI), $0
	JEQ  paused
	MOVQ $0, fusedState_lanes(DI)
	ADDQ R13, fusedState_regRows(DI)
#endif
	JMP  paused
pause:
#ifdef FUSED_AVX512
	// Go sees the carried rows only in memory: spill them first; the loop
	// top then pauses again, in memory mode.
	CMPQ fusedState_lanes(DI), $0
	JNE  spill
#endif
paused:
	MOVQ R13, fusedState_d(DI)
	MOVQ R14, fusedState_lo(DI)
	MOVQ R15, fusedState_hi(DI)
	MOVQ BX, fusedState_best(DI)
	// Back from bases to the roles and origins the next call starts from.
	XTOGPR(X15, AX)
	SUBQ R9, AX
	SARQ $1, AX
	MOVQ AX, fusedState_org2(DI)
	XTOGPR(X7, AX)
	SUBQ R10, AX
	SARQ $1, AX
	MOVQ AX, fusedState_org3(DI)
	XTOGPR(X14, AX)
	MOVQ diags+8(FP), SI
	XORL CX, CX
	MOVQ $1, DX
	CMPQ AX, 24(SI)
	CMOVQEQ DX, CX
	MOVQ $2, DX
	CMPQ AX, 48(SI)
	CMOVQEQ DX, CX
	MOVQ CX, fusedState_phase(DI)
#ifdef FUSED_AVX2
	VZEROUPPER
#endif
	RET
