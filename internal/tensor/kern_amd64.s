// AVX2 inner loops of the three matmul range kernels (matmul.go), of
// their zero-skipping one-row axpy, and of the direct convolution's
// forward pass (conv.go).
//
// The contract (DESIGN.md §13): a SIMD lane is a distinct output element
// j; every element still takes its k products one at a time, in
// ascending order, each product rounded (VMULPD) and then added
// (VADDPD) — the two roundings of the Go loops. So: no VFMADD*, no
// horizontal add, no k split across lanes. The Go loops in matmul.go
// are the reference on every GOARCH and what these routines are
// bit-compared against (matmul_property_test.go, conv_test.go,
// kern_linux_amd64_test.go).
//
// NaN payloads. When both sources of an x86 FP instruction are NaN the
// result carries the *first* source's payload — in Go's operand order
// the middle operand of VMULPD/VADDPD S2, S1, D. Products and sums here
// take the operand order go1.24 compiles the Go loops to (MULSD with b
// as destination; ADDSD as annotated below), so a NaN-laden product
// comes out Float64bits-equal on both paths, not merely NaN on both.
//
// Every routine is NOSPLIT with no frame, touches only the elements its
// Go wrapper has re-sliced for it, leaves X15 alone (ABIInternal's zero
// register) and executes VZEROUPPER before returning, since the Go
// compiler emits legacy-SSE code around it.

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports OSXSAVE and AVX (leaf 1 ECX bits 27,
// 28), the OS has enabled XMM and YMM state (XCR0 bits 1, 2) and leaf 7
// EBX bit 5 is set.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// func axpy4AVX2(d, b *float64, n, w int, a0, a1, a2, a3 float64)
//
// d[j] = (((d[j] + a0·b[j]) + a1·b[n+j]) + a2·b[2n+j]) + a3·b[3n+j]
// for j in [0, w): 8, then 4, then 1 elements at a time.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ w+24(FP), CX
	VBROADCASTSD a0+32(FP), Y8
	VBROADCASTSD a1+40(FP), Y9
	VBROADCASTSD a2+48(FP), Y10
	VBROADCASTSD a3+56(FP), Y11
	SHLQ $3, AX
	LEAQ (SI)(AX*1), R8  // row 1 of b
	LEAQ (R8)(AX*1), R9  // row 2
	LEAQ (R9)(AX*1), R10 // row 3
	XORQ BX, BX          // j

axpy8:
	LEAQ 8(BX), DX
	CMPQ DX, CX
	JGT  axpy4
	VMOVUPD (SI)(BX*8), Y0
	VMOVUPD 32(SI)(BX*8), Y1
	VMULPD  Y8, Y0, Y0         // t0 = b0·a0
	VMULPD  Y8, Y1, Y1
	VADDPD  (DI)(BX*8), Y0, Y0 // s = t0 + d
	VADDPD  32(DI)(BX*8), Y1, Y1
	VMOVUPD (R8)(BX*8), Y2
	VMOVUPD 32(R8)(BX*8), Y3
	VMULPD  Y9, Y2, Y2         // t1 = b1·a1
	VMULPD  Y9, Y3, Y3
	VADDPD  Y0, Y2, Y0         // s = t1 + s
	VADDPD  Y1, Y3, Y1
	VMOVUPD (R9)(BX*8), Y4
	VMOVUPD 32(R9)(BX*8), Y5
	VMULPD  Y10, Y4, Y4        // t2 = b2·a2
	VMULPD  Y10, Y5, Y5
	VADDPD  Y4, Y0, Y0         // s = s + t2
	VADDPD  Y5, Y1, Y1
	VMOVUPD (R10)(BX*8), Y6
	VMOVUPD 32(R10)(BX*8), Y7
	VMULPD  Y11, Y6, Y6        // t3 = b3·a3
	VMULPD  Y11, Y7, Y7
	VADDPD  Y0, Y6, Y0         // s = t3 + s
	VADDPD  Y1, Y7, Y1
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	MOVQ    DX, BX
	JMP     axpy8

axpy4:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  axpy1
	VMOVUPD (SI)(BX*8), Y0
	VMULPD  Y8, Y0, Y0
	VADDPD  (DI)(BX*8), Y0, Y0
	VMOVUPD (R8)(BX*8), Y2
	VMULPD  Y9, Y2, Y2
	VADDPD  Y0, Y2, Y0
	VMOVUPD (R9)(BX*8), Y4
	VMULPD  Y10, Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD (R10)(BX*8), Y6
	VMULPD  Y11, Y6, Y6
	VADDPD  Y0, Y6, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    DX, BX

axpy1:
	CMPQ BX, CX
	JGE  axpydone
	VMOVSD (SI)(BX*8), X0
	VMULSD X8, X0, X0
	VADDSD (DI)(BX*8), X0, X0
	VMOVSD (R8)(BX*8), X2
	VMULSD X9, X2, X2
	VADDSD X0, X2, X0
	VMOVSD (R9)(BX*8), X4
	VMULSD X10, X4, X4
	VADDSD X4, X0, X0
	VMOVSD (R10)(BX*8), X6
	VMULSD X11, X6, X6
	VADDSD X0, X6, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func axpy1AVX2(d, b *float64, w int, a float64)
//
// d[j] = d[j] + a·b[j] for j in [0, w): 8, then 4, then 1 elements at a
// time. The operand order is the one go1.24 compiles axpyRows' Go loop
// di[j] += a*bv to — MULSD a into b, then ADDSD d into the product — so
// where a NaN product meets a NaN d the product's payload survives on
// both paths.
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ w+16(FP), CX
	VBROADCASTSD a+24(FP), Y8
	XORQ BX, BX  // j

one8:
	LEAQ 8(BX), DX
	CMPQ DX, CX
	JGT  one4
	VMOVUPD (SI)(BX*8), Y0
	VMOVUPD 32(SI)(BX*8), Y1
	VMULPD  Y8, Y0, Y0         // t = b·a
	VMULPD  Y8, Y1, Y1
	VADDPD  (DI)(BX*8), Y0, Y0 // t + d
	VADDPD  32(DI)(BX*8), Y1, Y1
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	MOVQ    DX, BX
	JMP     one8

one4:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  one1
	VMOVUPD (SI)(BX*8), Y0
	VMULPD  Y8, Y0, Y0
	VADDPD  (DI)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    DX, BX

one1:
	CMPQ BX, CX
	JGE  onedone
	VMOVSD (SI)(BX*8), X0
	VMULSD X8, X0, X0
	VADDSD (DI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    one1

onedone:
	VZEROUPPER
	RET

// func dotPanelAVX2(dst *float64, n int, a *float64, k int, bt *float64, rows int)
//
// dst[r·n + c] = Σp a[r·k + p] · bt[8p + c] for r in [0, rows), c in
// [0, 8), each sum started at +0.0 and taken over p ascending. bt is an
// 8-column panel of bᵀ packed row-major; rows is a multiple of 4. Four
// rows by eight columns are accumulated at once in Y0–Y7, one broadcast
// of a[r][p] per row.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), R9
	MOVQ bt+32(FP), DX
	MOVQ rows+40(FP), CX
	SHLQ $3, R8        // dst row stride in bytes
	LEAQ (R9*8), R10   // a row stride in bytes

dotrows:
	CMPQ CX, $4
	JLT  dotdone
	LEAQ (SI)(R10*1), R11  // a rows 1, 2, 3
	LEAQ (SI)(R10*2), R12
	LEAQ (R11)(R10*2), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, BX  // bt row p
	XORQ AX, AX  // p

dotk:
	CMPQ AX, R9
	JGE  dotstore
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD Y10, Y8, Y11   // b·a
	VMULPD Y10, Y9, Y12
	VADDPD Y11, Y0, Y0    // s = s + b·a
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R11)(AX*8), Y13
	VMULPD Y13, Y8, Y11
	VMULPD Y13, Y9, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (R12)(AX*8), Y10
	VMULPD Y10, Y8, Y11
	VMULPD Y10, Y9, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R13)(AX*8), Y13
	VMULPD Y13, Y8, Y11
	VMULPD Y13, Y9, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ $64, BX
	INCQ AX
	JMP  dotk

dotstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	LEAQ    (DI)(R8*2), R12
	VMOVUPD Y6, (R12)(R8*1)
	VMOVUPD Y7, 32(R12)(R8*1)
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R8*4), DI
	SUBQ $4, CX
	JMP  dotrows

dotdone:
	VZEROUPPER
	RET

// func convPanelAVX2(dst *float64, ohw int, x *float64, orig, off *int, k int, wt, bias *float64, cnt int)
//
// dst[c·ohw + r] = (Σq x[orig[r] + off[q]] · wt[8q + c]) + bias[c] for r
// in [0, cnt), c in [0, 8): dotPanelAVX2's loop, with window r's row of
// the lowered matrix read through the offset tables instead of from
// memory. Four windows by eight channels accumulate in Y0–Y7 (Y0/Y1
// window 0, Y2/Y3 window 1, ...), get the bias added (s + b), and are
// transposed in registers so each channel's four windows store as one
// vector. cnt is a multiple of 4. NaN payloads: products are w·x and
// sums s + t as in dotPanelAVX2, and the bias add is s + b, the order
// go1.24 compiles AddRowVector to, so where one NaN meets another the
// payload kept is the lowered form's. The transpose only moves bits.
TEXT ·convPanelAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ orig+24(FP), DX
	MOVQ off+32(FP), R9
	MOVQ k+40(FP), SI
	MOVQ cnt+64(FP), CX

convwin:
	CMPQ CX, $4
	JLT  convdone
	MOVQ x+16(FP), R8
	MOVQ (DX), R10
	LEAQ (R8)(R10*8), R10  // &x[orig[r]] for windows r..r+3
	MOVQ 8(DX), R11
	LEAQ (R8)(R11*8), R11
	MOVQ 16(DX), R12
	LEAQ (R8)(R12*8), R12
	MOVQ 24(DX), R13
	LEAQ (R8)(R13*8), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ wt+48(FP), BX  // wt row q
	XORQ AX, AX         // q

convk:
	CMPQ AX, SI
	JGE  convstore
	MOVQ (R9)(AX*8), R8  // off[q]
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (R10)(R8*8), Y10
	VMULPD Y10, Y8, Y11  // w·x
	VMULPD Y10, Y9, Y12
	VADDPD Y11, Y0, Y0   // s = s + w·x
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R11)(R8*8), Y13
	VMULPD Y13, Y8, Y11
	VMULPD Y13, Y9, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (R12)(R8*8), Y10
	VMULPD Y10, Y8, Y11
	VMULPD Y10, Y9, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R13)(R8*8), Y13
	VMULPD Y13, Y8, Y11
	VMULPD Y13, Y9, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ $64, BX
	INCQ AX
	JMP  convk

convstore:
	MOVQ bias+56(FP), R8
	VADDPD (R8), Y0, Y0    // s + b, channels 0-3
	VADDPD 32(R8), Y1, Y1  // channels 4-7
	VADDPD (R8), Y2, Y2
	VADDPD 32(R8), Y3, Y3
	VADDPD (R8), Y4, Y4
	VADDPD 32(R8), Y5, Y5
	VADDPD (R8), Y6, Y6
	VADDPD 32(R8), Y7, Y7

	// Channels 0-3: rows w0..w3 are Y0, Y2, Y4, Y6.
	VUNPCKLPD  Y2, Y0, Y8         // w0c0 w1c0 w0c2 w1c2
	VUNPCKHPD  Y2, Y0, Y9         // w0c1 w1c1 w0c3 w1c3
	VUNPCKLPD  Y6, Y4, Y10        // w2c0 w3c0 w2c2 w3c2
	VUNPCKHPD  Y6, Y4, Y11        // w2c1 w3c1 w2c3 w3c3
	VPERM2F128 $0x20, Y10, Y8, Y0 // c0: w0 w1 w2 w3
	VPERM2F128 $0x20, Y11, Y9, Y2 // c1
	VPERM2F128 $0x31, Y10, Y8, Y4 // c2
	VPERM2F128 $0x31, Y11, Y9, Y6 // c3

	// Channels 4-7: rows Y1, Y3, Y5, Y7.
	VUNPCKLPD  Y3, Y1, Y8
	VUNPCKHPD  Y3, Y1, Y9
	VUNPCKLPD  Y7, Y5, Y10
	VUNPCKHPD  Y7, Y5, Y11
	VPERM2F128 $0x20, Y10, Y8, Y1 // c4
	VPERM2F128 $0x20, Y11, Y9, Y3 // c5
	VPERM2F128 $0x31, Y10, Y8, Y5 // c6
	VPERM2F128 $0x31, Y11, Y9, Y7 // c7

	MOVQ    ohw+8(FP), R8
	SHLQ    $3, R8  // channel stride in bytes
	MOVQ    DI, R10
	VMOVUPD Y0, (R10)
	VMOVUPD Y2, (R10)(R8*1)
	LEAQ    (R10)(R8*2), R10
	VMOVUPD Y4, (R10)
	VMOVUPD Y6, (R10)(R8*1)
	LEAQ    (R10)(R8*2), R10
	VMOVUPD Y1, (R10)
	VMOVUPD Y3, (R10)(R8*1)
	LEAQ    (R10)(R8*2), R10
	VMOVUPD Y5, (R10)
	VMOVUPD Y7, (R10)(R8*1)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     convwin

convdone:
	VZEROUPPER
	RET
