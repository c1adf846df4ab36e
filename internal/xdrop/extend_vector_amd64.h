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
	MOVQ $const_negInf16, AX
	VPBROADCASTW AX, Z20
	MOVQ fusedState_match(DI), AX
	VPBROADCASTW AX, Z21
	MOVQ fusedState_mismatch(DI), AX
	VPBROADCASTW AX, Z22
	MOVQ fusedState_gap(DI), AX
	VPBROADCASTW AX, Z23
	MOVQ fusedState_x(DI), AX
	VPBROADCASTW AX, Z27
	VMOVDQU64 regsConst<>+0(SB), Z24
	VMOVDQU64 regsConst<>+64(SB), Z25
	VMOVDQU64 regsConst<>+128(SB), Z28
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

loop:
	// rt mirrors t in reverse, filled one base per anti-diagonal.
	CMPQ R13, fusedState_n(DI)
	JGT  filled
	MOVQ t+24(FP), AX
	MOVBLZX -1(AX)(R13*1), AX
	MOVB AX, (R12)

filled:
	// The band arrives inside the matrix (plant clips it; a register-mode
	// band needs no clip, see INSIDE); past d = m+n it is empty.
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
	CMPB fusedState_regs(DI), $0
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
	INCQ AX
	CMPQ AX, $const_regReload
	JLE  reload
#endif
	JMP  loop

#ifdef FUSED_AVX512
// INSIDE(out) jumps to out unless the 64-byte windows of the frame F_d
// lie inside q and t, q[F_d-1, F_d+63) and t[d-F_d-64, d-F_d), with one
// more base of each beyond them (F_d+64 <= m, d-F_d < n). Then a band in
// the frame of this or the previous anti-diagonal, or one lane past it,
// lies inside the matrix: cells from F_d-1 >= d-n, up to F_d+64 <= m.
#define INSIDE(out) \
	MOVQ R13, AX; \
	SUBQ R8, AX; \
	CMPQ AX, $64; \
	JLT  out; \
	CMPQ AX, fusedState_n(DI); \
	JGE  out; \
	CMPQ R8, $1; \
	JLT  out; \
	LEAQ 64(R8), AX; \
	CMPQ AX, fusedState_m(DI); \
	JGT  out

reload:
	// Memory to register mode after anti-diagonal d-1, AX = the width of
	// d's band <= regReload, if the q and t windows of the frame F_d that
	// centers the band lie inside q and t: the cells d reads of the two
	// carried rows (a2 [A, B] and a3 [A, B-1], with A = max(lo-1, 0) and
	// B = min(hi, d-1)) are loaded into lanes that hold the sentinel
	// everywhere else. The buffers hold those cells: they lie within what
	// d-1 read and wrote.
	MOVQ $64, CX
	SUBQ AX, CX
	SHRQ $1, CX
	MOVQ R14, R8
	SUBQ CX, R8 // F_d = lo - (64-width)/2
	INSIDE(loop)
	LEAQ -1(R14), SI
	XORL CX, CX
	CMPQ SI, CX
	CMOVQLT CX, SI // A
	LEAQ -1(R13), CX
	CMPQ CX, R15
	CMOVQGT R15, CX
	SUBQ SI, CX // B - A
	SUBQ R8, SI // A - F_d
	// a3 in frame F_d - 1: B - A cells from lane A - F_d + 1.
	MOVQ $-1, DX
	BZHIQ CX, DX, DX
	LEAQ 1(SI), AX
	SHLXQ AX, DX, DX
	KMOVQ DX, K1
	KSHIFTRQ $32, K1, K2
	VMOVDQA64 Z20, Z18
	VMOVDQA64 Z20, Z19
	VMOVDQU16 -2(R10)(R8*2), K1, Z18
	VMOVDQU16 62(R10)(R8*2), K2, Z19
	// a2 in frame F_{d-1} = F_d - (d even): B - A + 1 cells from lane
	// A - F_{d-1}.
	INCQ CX
	MOVQ $-1, DX
	BZHIQ CX, DX, DX
	MOVQ R13, AX
	NOTQ AX
	ANDQ $1, AX // d even
	ADDQ AX, SI
	SHLXQ SI, DX, DX
	KMOVQ DX, K1
	KSHIFTRQ $32, K1, K2
	LEAQ (R9)(R8*2), DX
	SUBQ AX, DX
	SUBQ AX, DX
	VMOVDQA64 Z20, Z16
	VMOVDQA64 Z20, Z17
	VMOVDQU16 (DX), K1, Z16
	VMOVDQU16 64(DX), K2, Z17
	VPBROADCASTW BX, Z31
	VPSUBW Z27, Z31, Z26 // best - x
	MOVQ t+24(FP), R9
	MOVB $1, fusedState_regs(DI)
	INCQ fusedState_toRegs(DI)
	SUBQ R13, fusedState_regRows(DI)
	JMP  regs_band

regs:
	// One anti-diagonal in registers, its band in K1 (lanes 0..31) and K2
	// (32..63). Lane l holds cell F_d + l, and F_{d-2} = F_d - 1, so the
	// substitution source of lane l is lane l of a3, and its gap sources
	// are lanes l-1 and l of a2 when d is odd (F_{d-1} = F_d), lanes l and
	// l+1 when it is even. Byte k of the t window at t[d-F_d-64] is the
	// base of lane 63-k.
	MOVQ R13, AX
	SUBQ R8, AX
	VMOVDQU64 -1(R11)(R8*1), Z0
	VMOVDQU64 -64(R9)(AX*1), Z1
	VPSHUFB Z28, Z1, Z1
	VSHUFI64X2 $0x1B, Z1, Z1, Z1
	VPCMPEQB Z1, Z0, K5
	KSHIFTRQ $32, K5, K6
	VPBLENDMW Z21, Z22, K5, Z2
	VPBLENDMW Z21, Z22, K6, Z3
	VPADDW Z18, Z2, Z2 // substitution
	VPADDW Z19, Z3, Z3
	TESTQ $1, R13
	JZ   regs_even
	VMOVDQA64 Z24, Z4
	VPERMI2W Z16, Z20, Z4 // lane l: a2 lane l-1, the sentinel at 0
	VMOVDQA64 Z24, Z5
	VPERMI2W Z17, Z16, Z5
	JMP  regs_gap
regs_even:
	VMOVDQA64 Z25, Z4
	VPERMI2W Z17, Z16, Z4 // lane l: a2 lane l+1, the sentinel at 63
	VMOVDQA64 Z25, Z5
	VPERMI2W Z20, Z17, Z5
regs_gap:
	VPMAXSW Z16, Z4, Z4
	VPMAXSW Z17, Z5, Z5
	VPADDW Z23, Z4, Z4
	VPADDW Z23, Z5, Z5
	VPMAXSW Z4, Z2, Z2 // cell scores
	VPMAXSW Z5, Z3, Z3
	// Survivors: in the band and at or above the threshold; every other
	// lane holds the sentinel.
	VPCMPW $5, Z26, Z2, K1, K5
	VPCMPW $5, Z26, Z3, K2, K6
	VPBLENDMW Z2, Z20, K5, Z29
	VPBLENDMW Z3, Z20, K6, Z30
	// Only a row with a cell above best in its band moves best and the
	// threshold: a pruned cell is below the threshold and so below best.
	// Z31 holds best in every lane.
	VPCMPW $6, Z31, Z2, K1, K3
	VPCMPW $6, Z31, Z3, K2, K4
	KORTESTD K3, K4
	JZ   regs_trim
	// The row maximum over the band, folded to every lane, is the new
	// best; the first lane holding it cleared the threshold.
	VPBLENDMW Z2, Z20, K1, Z0
	VPMAXSW Z3, Z0, K2, Z0
	VSHUFI64X2 $0x4E, Z0, Z0, Z1
	VPMAXSW Z1, Z0, Z0
	VSHUFI64X2 $0xB1, Z0, Z0, Z1
	VPMAXSW Z1, Z0, Z0
	VPSHUFD $0x4E, Z0, Z1
	VPMAXSW Z1, Z0, Z0
	VPSHUFD $0xB1, Z0, Z1
	VPMAXSW Z1, Z0, Z0
	VPROLD $16, Z0, Z1
	VPMAXSW Z1, Z0, Z31
	VPSUBW Z27, Z31, Z26 // the next threshold, best - x
	VMOVD X31, AX
	MOVWQSX AX, BX
	VPCMPEQW Z31, Z29, K3
	VPCMPEQW Z31, Z30, K4
	KMOVD K3, AX
	KMOVD K4, CX
	SHLQ $32, CX
	ORQ  CX, AX
	BSFQ AX, AX
	ADDQ R8, AX
	MOVQ AX, fusedState_bestI(DI)
	MOVQ R13, CX
	SUBQ AX, CX
	MOVQ CX, fusedState_bestJ(DI)
regs_trim:
	// The survivors' ends give the next band, one cell longer at the top;
	// the next frame is F_{d+1} = F_d + e (e = 1 if d+1 is even).
	KMOVD K5, AX
	KMOVD K6, CX
	SHLQ $32, CX
	ORQ  CX, AX
	JZ   emptied
	BSFQ AX, SI
	BSRQ AX, DX
	LEAQ (R8)(SI*1), R14
	LEAQ 1(R8)(DX*1), R15
	VMOVDQA64 Z16, Z18
	VMOVDQA64 Z17, Z19
	VMOVDQA64 Z29, Z16
	VMOVDQA64 Z30, Z17
	INCQ R13
	DECQ R12
	MOVQ R13, AX
	NOTQ AX
	ANDQ $1, AX
	ADDQ AX, R8

regs_band:
	// Before anti-diagonal d: K1 and K2 get its band, in lanes of F_d.
	// The register mode runs only where the q and t windows lie inside q
	// and t (INSIDE), so the band needs no clip to the matrix. Elsewhere,
	// and for a band that does not fit the frame, the rows go to memory
	// before the loop top sees d.
	INSIDE(spill)
	MOVQ R14, DX
	SUBQ R8, DX
	JLT  spill
	MOVQ R15, AX
	SUBQ R8, AX
	CMPQ AX, $63
	JGT  spill
	SUBQ DX, AX
	INCQ AX
	MOVQ $-1, CX
	BZHIQ AX, CX, CX
	SHLXQ DX, CX, CX
	KMOVQ CX, K1
	SHRQ $32, CX
	KMOVD CX, K2
	JMP  loop

spill:
	// Register to memory mode before d: the cells d reads of a2 (frame
	// F_d - e, e = 1 if d is even) and a3 (frame F_d - 1) go to their
	// buffers in the memory layout, cell A at slot 0 of each. A cell of
	// those ranges outside its row's frame is dead (every live cell
	// entered the frame with its band): the sentinel stored first at both
	// ends of each range stands for it. The band needs no clip to the
	// matrix (see INSIDE), also when it has left the frame by a lane.
	MOVB $0, fusedState_regs(DI)
	INCQ fusedState_toMem(DI)
	ADDQ R13, fusedState_regRows(DI)
	LEAQ -1(R14), SI
	XORL CX, CX
	CMPQ SI, CX
	CMOVQLT CX, SI // A
	LEAQ -1(R13), CX
	CMPQ CX, R15
	CMOVQGT R15, CX // B
	SUBQ R8, SI
	SUBQ R8, CX
	MOVQ $-1, R10
	XORL R9, R9
	// a3: lanes [A-F_d+1, B-F_d] clipped to 0..63, as the bits below the
	// top count that are not below the bottom one.
	LEAQ 1(SI), AX
	CMPQ AX, R9
	CMOVQLT R9, AX
	BZHIQ AX, R10, AX
	LEAQ 1(CX), DX
	CMPQ DX, R9
	CMOVQLT R9, DX
	BZHIQ DX, R10, DX
	ANDNQ DX, AX, AX
	KMOVQ AX, K3
	KSHIFTRQ $32, K3, K4
	// a2: lanes [A-F_d+e, B-F_d+e] clipped.
	MOVQ R13, DX
	NOTQ DX
	ANDQ $1, DX // e
	ADDQ DX, SI
	LEAQ 1(CX)(DX*1), CX
	CMPQ SI, R9
	CMOVQLT R9, SI
	BZHIQ SI, R10, SI
	CMPQ CX, R9
	CMOVQLT R9, CX
	BZHIQ CX, R10, CX
	ANDNQ CX, SI, SI
	KMOVQ SI, K1
	KSHIFTRQ $32, K1, K2
	// The buffers: a2's is Workspace.v[phase+1], a3's v[phase+2].
	LEAQ -1(R14), SI
	XORL CX, CX
	CMPQ SI, CX
	CMOVQLT CX, SI // A
	LEAQ -1(R13), CX
	CMPQ CX, R15
	CMOVQGT R15, CX // B
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
	NEGQ DX
	ADDQ R8, DX // F_{d-1}
	VMOVDQU16 Z16, K1, (R9)(DX*2)
	VMOVDQU16 Z17, K2, 64(R9)(DX*2)
	VMOVDQU16 Z18, K3, -2(R10)(R8*2)
	VMOVDQU16 Z19, K4, 62(R10)(R8*2)
	JMP  loop
#undef INSIDE
#endif

emptied:
	INCQ R13 // band empty after d: X-drop termination
done:
	MOVB $1, fusedState_done(DI)
#ifdef FUSED_AVX512
	CMPB fusedState_regs(DI), $0
	JEQ  paused
	MOVB $0, fusedState_regs(DI)
	ADDQ R13, fusedState_regRows(DI)
#endif
	JMP  paused
pause:
#ifdef FUSED_AVX512
	// Go sees the carried rows only in memory: spill them first; the loop
	// top then pauses again, in memory mode.
	CMPB fusedState_regs(DI), $0
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
