// The body of the fused routine, included once per instruction set by
// extend_vector_amd64.s, which defines the vector pseudo-mnemonics used
// here (LOADU, MAXW, ...) as legacy SSE2 instructions or as their VEX
// forms, the latter with FUSED_AVX2 defined. Two-operand forms
// throughout: OP(a, x) is x = x OP a.

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
	JGT  clip
	MOVQ t+24(FP), AX
	MOVBLZX -1(AX)(R13*1), AX
	MOVB AX, (R12)

clip:
	// lo = max(lo, d-n), hi = min(hi, m). hi <= d holds already (the band
	// opens one cell per anti-diagonal), and past d = m+n the band is empty.
	MOVQ R13, AX
	SUBQ fusedState_n(DI), AX
	CMPQ R14, AX
	CMOVQLT AX, R14
	MOVQ fusedState_m(DI), AX
	CMPQ R15, AX
	CMOVQGT AX, R15
	CMPQ R14, R15
	JGT  done

	CMPQ BX, $const_vectorRebaseAt
	JGE  pause
	MOVQ fusedState_cells(DI), AX
	CMPQ AX, fusedState_limit(DI)
	JGE  pause

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
	JNE  count
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

count:
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
	JZ   trim
	MOVL AX, -4(DX)(R13*4)

trim:
	// SI = first surviving cell, DX = last (Alg. 1 lines 10-15).
	MOVQ R14, SI
	CMPQ AX, $8
	JLT  trim_narrow
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
	JMP  loop

emptied:
	INCQ R13 // band empty after d: X-drop termination
done:
	MOVB $1, fusedState_done(DI)
pause:
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
