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

// ROWS6 loads the data pointers of the six row slices whose headers start
// at R8 (a slice header is 24 bytes, its data pointer first) into AX, BX,
// CX, DX, SI and DI.
#define ROWS6 \
	MOVQ 0(R8), AX;   \
	MOVQ 24(R8), BX;  \
	MOVQ 48(R8), CX;  \
	MOVQ 72(R8), DX;  \
	MOVQ 96(R8), SI;  \
	MOVQ 120(R8), DI

// func axpy6RowsAVX(c *float32, rows *[]float32, x, acc *float32, n int, zero, apply bool)
//
// Each lane is one coordinate and runs axpy6Rows' operations on it in its
// order. Registers: Y0-Y5 the coefficients, Y6 x, Y7 acc, Y8 the current
// row, Y9 a product; AX, BX, CX, DX, SI, DI the rows, R8 x, R9 acc, R10
// n, R12 the coordinate index, R13 the end of the 8-wide loop, R14 zero,
// R11 apply. With zero
// set, acc starts from +0 in the register instead of its stored value. No
// legacy-SSE instruction may appear here: mixing one with the 256-bit code
// costs a state transition.
TEXT ·axpy6RowsAVX(SB), NOSPLIT, $0-42
	MOVQ         c+0(FP), R10
	VBROADCASTSS 0(R10), Y0
	VBROADCASTSS 4(R10), Y1
	VBROADCASTSS 8(R10), Y2
	VBROADCASTSS 12(R10), Y3
	VBROADCASTSS 16(R10), Y4
	VBROADCASTSS 20(R10), Y5
	MOVQ         rows+8(FP), R8
	ROWS6
	MOVQ         x+16(FP), R8
	MOVQ         acc+24(FP), R9
	MOVQ         n+32(FP), R10
	MOVBLZX      zero+40(FP), R14
	MOVBLZX      apply+41(FP), R11
	XORQ         R12, R12
	MOVQ         R10, R13
	ANDQ         $-8, R13

loop8:
	CMPQ    R12, R13
	JGE     tail
	VMOVUPS (R8)(R12*4), Y6
	TESTQ   R14, R14
	JNZ     zero8
	VMOVUPS (R9)(R12*4), Y7
	JMP     rows8

zero8:
	VXORPS Y7, Y7, Y7

rows8:
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
	TESTQ  R14, R14
	JNZ    zero1
	VMOVSS (R9)(R12*4), X7
	JMP    rows1

zero1:
	VXORPS X7, X7, X7

rows1:
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

// DOT1 adds one coordinate's products to the accumulator Y0: Y15 = the
// coordinate of x at byte offset off from the index broadcast, Y15 *= col
// (the six rows' same coordinate, one row per lane), Y0 += Y15.
#define DOT1(off, col) \
	VBROADCASTSS off(R9)(R12*4), Y15; \
	VMULPS       col, Y15, Y15;          \
	VADDPS       Y15, Y0, Y0

// func dot6RowsAVX(x *float32, rows *[]float32, out *float32, n int)
//
// Each lane is one row: lane k accumulates x·row k, and lanes 6 and 7 are
// unused. The 8-wide loop loads 8 coordinates of each row and transposes
// them into 8 columns, one per coordinate, then adds the columns' products
// with x in ascending coordinate order, one VMULPS and one VADDPS each; the
// tail builds one column at a time with VINSERTPS. So every lane sums
// exactly dot6Serial's chain for its row. Registers: Y0 the accumulator,
// Y1-Y12 rows, interleaves and columns, Y15 a product; AX, BX, CX, DX, SI,
// DI the rows, R9 x, R10 n, R12 the coordinate index, R13 the end of the
// 8-wide loop.
TEXT ·dot6RowsAVX(SB), NOSPLIT, $0-32
	MOVQ   rows+8(FP), R8
	ROWS6
	MOVQ   x+0(FP), R9
	MOVQ   n+24(FP), R10
	VXORPS Y0, Y0, Y0
	XORQ   R12, R12
	MOVQ   R10, R13
	ANDQ   $-8, R13

dloop8:
	CMPQ    R12, R13
	JGE     dtail
	VMOVUPS (AX)(R12*4), Y1
	VMOVUPS (BX)(R12*4), Y2
	VMOVUPS (CX)(R12*4), Y3
	VMOVUPS (DX)(R12*4), Y4
	VMOVUPS (SI)(R12*4), Y5
	VMOVUPS (DI)(R12*4), Y6

	// Interleave row pairs: Y7 = r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5]
	// r1[5], Y8 the same for coordinates 2, 3 | 6, 7; Y9 and Y10 for rows 2
	// and 3, Y11 and Y12 for rows 4 and 5.
	VUNPCKLPS Y2, Y1, Y7
	VUNPCKHPS Y2, Y1, Y8
	VUNPCKLPS Y4, Y3, Y9
	VUNPCKHPS Y4, Y3, Y10
	VUNPCKLPS Y6, Y5, Y11
	VUNPCKHPS Y6, Y5, Y12

	// Rows 0-3 of one coordinate per 128-bit half: Y1 = coordinates 0 | 4,
	// Y2 = 1 | 5, Y3 = 2 | 6, Y4 = 3 | 7. Rows 4 and 5 of coordinates
	// 0 | 4 and 2 | 6 are the low pairs of Y11 and Y12; Y5 and Y6 move
	// those of 1 | 5 and 3 | 7 to the low pairs.
	VSHUFPS $0x44, Y9, Y7, Y1
	VSHUFPS $0xEE, Y9, Y7, Y2
	VSHUFPS $0x44, Y10, Y8, Y3
	VSHUFPS $0xEE, Y10, Y8, Y4
	VSHUFPS $0xEE, Y11, Y11, Y5
	VSHUFPS $0xEE, Y12, Y12, Y6

	// Columns: rows 0-3 in the low half, rows 4 and 5 in lanes 4 and 5.
	// Y7-Y10 are coordinates 0-3, Y1-Y4 coordinates 4-7.
	VINSERTF128 $1, X11, Y1, Y7
	VINSERTF128 $1, X5, Y2, Y8
	VINSERTF128 $1, X12, Y3, Y9
	VINSERTF128 $1, X6, Y4, Y10
	VPERM2F128  $0x31, Y11, Y1, Y1
	VPERM2F128  $0x31, Y5, Y2, Y2
	VPERM2F128  $0x31, Y12, Y3, Y3
	VPERM2F128  $0x31, Y6, Y4, Y4

	DOT1(0, Y7)
	DOT1(4, Y8)
	DOT1(8, Y9)
	DOT1(12, Y10)
	DOT1(16, Y1)
	DOT1(20, Y2)
	DOT1(24, Y3)
	DOT1(28, Y4)
	ADDQ $8, R12
	JMP  dloop8

dtail:
	CMPQ        R12, R10
	JGE         dstore
	VMOVSS      (AX)(R12*4), X1
	VINSERTPS   $0x10, (BX)(R12*4), X1, X1
	VINSERTPS   $0x20, (CX)(R12*4), X1, X1
	VINSERTPS   $0x30, (DX)(R12*4), X1, X1
	VMOVSS      (SI)(R12*4), X2
	VINSERTPS   $0x10, (DI)(R12*4), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	DOT1(0, Y1)
	INCQ        R12
	JMP         dtail

dstore:
	MOVQ         out+16(FP), R8
	VMOVUPS      X0, (R8)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X1, 16(R8)
	VZEROUPPER
	RET
