#include "textflag.h"

// func cpuHasAVX() bool
//
// AVX needs the CPU to implement it (CPUID leaf 1, ECX bit 28) and the OS to
// save the YMM registers across context switches: CPUID reports OSXSAVE
// (ECX bit 27) and XCR0, read by XGETBV, enables the XMM and YMM state
// (bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// ROW8 runs one row of the sweep on 8 coordinates: acc (Y7) += c·row,
// reading the row before its update, then row += c·x (Y6), stored before
// the next row is loaded. Every multiply and add is its own instruction.
#define ROW8(row, c) \
	VMOVUPS (row)(R12*4), Y8; \
	VMULPS  Y8, c, Y9;        \
	VADDPS  Y9, Y7, Y7;       \
	VMULPS  Y6, c, Y9;        \
	VADDPS  Y9, Y8, Y8;       \
	VMOVUPS Y8, (row)(R12*4)

// ROW1 is ROW8 on one coordinate, in VEX-encoded scalar instructions.
#define ROW1(row, c) \
	VMOVSS (row)(R12*4), X8; \
	VMULSS X8, c, X9;        \
	VADDSS X9, X7, X7;       \
	VMULSS X6, c, X9;        \
	VADDSS X9, X8, X8;       \
	VMOVSS X8, (row)(R12*4)

// func axpy6RowsAVX(c0, c1, c2, c3, c4, c5 float32, r0, r1, r2, r3, r4, r5, x, acc *float32, n int, apply bool)
//
// Each lane is one coordinate and runs axpy6Rows' operations on it in its
// order. Registers: Y0-Y5 the coefficients, Y6 x, Y7 acc, Y8 the current
// row, Y9 a product; R12 the coordinate index, R13 the end of the 8-wide
// loop. No legacy-SSE instruction may appear here: mixing one with the
// 256-bit code costs a state transition.
TEXT ·axpy6RowsAVX(SB), NOSPLIT, $0-97
	VBROADCASTSS c0+0(FP), Y0
	VBROADCASTSS c1+4(FP), Y1
	VBROADCASTSS c2+8(FP), Y2
	VBROADCASTSS c3+12(FP), Y3
	VBROADCASTSS c4+16(FP), Y4
	VBROADCASTSS c5+20(FP), Y5
	MOVQ         r0+24(FP), AX
	MOVQ         r1+32(FP), BX
	MOVQ         r2+40(FP), CX
	MOVQ         r3+48(FP), DX
	MOVQ         r4+56(FP), SI
	MOVQ         r5+64(FP), DI
	MOVQ         x+72(FP), R8
	MOVQ         acc+80(FP), R9
	MOVQ         n+88(FP), R10
	MOVBLZX      apply+96(FP), R11
	XORQ         R12, R12
	MOVQ         R10, R13
	ANDQ         $-8, R13

loop8:
	CMPQ    R12, R13
	JGE     tail
	VMOVUPS (R8)(R12*4), Y6
	VMOVUPS (R9)(R12*4), Y7
	ROW8(AX, Y0)
	ROW8(BX, Y1)
	ROW8(CX, Y2)
	ROW8(DX, Y3)
	ROW8(SI, Y4)
	ROW8(DI, Y5)
	VMOVUPS Y7, (R9)(R12*4)
	TESTQ   R11, R11
	JZ      next8
	VADDPS  Y7, Y6, Y6
	VMOVUPS Y6, (R8)(R12*4)

next8:
	ADDQ $8, R12
	JMP  loop8

tail:
	CMPQ   R12, R10
	JGE    done
	VMOVSS (R8)(R12*4), X6
	VMOVSS (R9)(R12*4), X7
	ROW1(AX, X0)
	ROW1(BX, X1)
	ROW1(CX, X2)
	ROW1(DX, X3)
	ROW1(SI, X4)
	ROW1(DI, X5)
	VMOVSS X7, (R9)(R12*4)
	TESTQ  R11, R11
	JZ     next1
	VADDSS X7, X6, X6
	VMOVSS X6, (R8)(R12*4)

next1:
	INCQ R12
	JMP  tail

done:
	VZEROUPPER
	RET
