//go:build amd64

#include "textflag.h"

// The step epilogue shared by blockPanel, segPanel and poolPanel. Register
// contract: accumulators in X0..X3, th in both halves of X12, fires base in
// R9, step k in R11, fired-steps mask in R13; X8..X11, AX and BX are
// clobbered.
//
// FIRE_STEP runs the packed threshold test (X8..X11 = th <= acc per lane),
// stores the step's fired-lane byte to fires[k] and sets bit k of R13 by
// CMOV when any lane fired.
#define FIRE_STEP \
	MOVAPD   X12, X8; \
	MOVAPD   X12, X9; \
	MOVAPD   X12, X10; \
	MOVAPD   X12, X11; \
	CMPPD    X0, X8, $2; \
	CMPPD    X1, X9, $2; \
	CMPPD    X2, X10, $2; \
	CMPPD    X3, X11, $2; \
	MOVMSKPD X8, AX; \
	MOVMSKPD X9, BX; \
	SHLQ     $2, BX; \
	ORQ      BX, AX; \
	MOVMSKPD X10, BX; \
	SHLQ     $4, BX; \
	ORQ      BX, AX; \
	MOVMSKPD X11, BX; \
	SHLQ     $6, BX; \
	ORQ      BX, AX; \
	MOVB     AX, (R9)(R11*1); \
	MOVQ     R13, BX; \
	BTSQ     R11, BX; \
	TESTQ    AX, AX; \
	CMOVQNE  BX, R13

// SOFT_RESET subtracts the mask-selected threshold: p - th on fired lanes,
// p - 0.0 == p bitwise on the rest (also when no lane fired).
#define SOFT_RESET \
	ANDPD X12, X8; \
	ANDPD X12, X9; \
	ANDPD X12, X10; \
	ANDPD X12, X11; \
	SUBPD X8, X0; \
	SUBPD X9, X1; \
	SUBPD X10, X2; \
	SUBPD X11, X3

// HARD_RESET clears fired lanes to +0 (acc &= ^mask).
#define HARD_RESET \
	ANDNPD X0, X8; \
	ANDNPD X1, X9; \
	ANDNPD X2, X10; \
	ANDNPD X3, X11; \
	MOVAPD X8, X0; \
	MOVAPD X9, X1; \
	MOVAPD X10, X2; \
	MOVAPD X11, X3

// func accumPanel(panel []float64, list []int32, acc *[8]float64)
//
// For each int32 input index in list, add the eight contiguous panel
// doubles at panel[idx*8 .. idx*8+8] into the eight accumulators at acc.
// SSE2 only (guaranteed on amd64): four MOVUPD/ADDPD pairs per spike, each
// ADDPD performing two independent IEEE double adds — lane i sees exactly
// the scalar sequence acc[i] += panel[idx*8+i] in list order, so the result
// is bit-identical to the generic Go implementation.
//
// Two spikes are processed per loop iteration with separate temporary
// registers (X4..X7 and X8..X11); both ADDPD groups target the same
// accumulators in list order, preserving each lane's add sequence.
TEXT ·accumPanel(SB), NOSPLIT, $0-56
	MOVQ panel_base+0(FP), SI
	MOVQ list_base+24(FP), DI
	MOVQ list_len+32(FP), CX
	MOVQ acc+48(FP), DX

	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3

	SUBQ $2, CX
	JLT  tail

pair:
	MOVLQSX (DI), AX
	MOVLQSX 4(DI), BX
	SHLQ    $6, AX
	SHLQ    $6, BX

	MOVUPD (SI)(AX*1), X4
	MOVUPD 16(SI)(AX*1), X5
	MOVUPD 32(SI)(AX*1), X6
	MOVUPD 48(SI)(AX*1), X7
	MOVUPD (SI)(BX*1), X8
	MOVUPD 16(SI)(BX*1), X9
	MOVUPD 32(SI)(BX*1), X10
	MOVUPD 48(SI)(BX*1), X11

	ADDPD X4, X0
	ADDPD X5, X1
	ADDPD X6, X2
	ADDPD X7, X3
	ADDPD X8, X0
	ADDPD X9, X1
	ADDPD X10, X2
	ADDPD X11, X3

	ADDQ $8, DI
	SUBQ $2, CX
	JGE  pair

tail:
	ADDQ $2, CX
	JZ   done

	MOVLQSX (DI), AX
	SHLQ    $6, AX
	MOVUPD  (SI)(AX*1), X4
	MOVUPD  16(SI)(AX*1), X5
	MOVUPD  32(SI)(AX*1), X6
	MOVUPD  48(SI)(AX*1), X7
	ADDPD   X4, X0
	ADDPD   X5, X1
	ADDPD   X6, X2
	ADDPD   X7, X3

done:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	RET

// func blockPanel(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[8]float64, th float64, hard bool) uint64
//
// Integrate one packed 8-lane panel across a whole temporal block with the
// accumulators held in XMM registers. Step k's spike indices are
// flat[offs[k]:offs[k+1]]; for each, the eight contiguous panel doubles are
// added (ADDPD: independent per-lane IEEE adds, in list order), then the
// step's threshold test runs as CMPPD(th, acc, LE) — the packed equivalent
// of the scalar acc[i] >= th including its NaN behavior (a NaN lane never
// fires) — and fired lanes reset branchlessly: soft reset subtracts the
// mask-selected threshold (p - th on fired lanes, p - 0.0 == p bitwise on
// the rest), hard reset clears fired lanes to +0. fires[k] receives the
// step's fired-lane byte; the returned word has bit k set if any lane fired
// on step k, so the caller commits fire bytes without rescanning. Both the
// reset and that bit (a CMOV) run on every step: at the networks' rates
// whether a group fires on a step is hard to predict, and a branch on it
// mispredicted often enough to cost more than the reset it skipped.
TEXT ·blockPanel(SB), NOSPLIT, $0-128
	MOVQ     panel_base+0(FP), SI
	MOVQ     flat_base+24(FP), DI
	MOVQ     offs_base+48(FP), R8
	MOVQ     fires_base+72(FP), R9
	MOVQ     fires_len+80(FP), CX
	MOVQ     acc+96(FP), DX
	MOVSD    th+104(FP), X12
	UNPCKLPD X12, X12
	MOVBQZX  hard+112(FP), R10

	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3

	// DI = &flat[offs[0]] (offs entries are absolute into flat).
	MOVLQSX (R8), AX
	LEAQ    (DI)(AX*4), DI

	XORQ R11, R11 // k
	XORQ R13, R13 // fired-steps bitmask

step:
	CMPQ    R11, CX
	JGE     done
	MOVLQSX 4(R8)(R11*4), AX // offs[k+1]
	MOVQ    flat_base+24(FP), BX
	LEAQ    (BX)(AX*4), BX   // end of step k's spikes

adds:
	CMPQ    DI, BX
	JGE     endadds
	MOVLQSX (DI), AX
	SHLQ    $6, AX
	MOVUPD  (SI)(AX*1), X4
	MOVUPD  16(SI)(AX*1), X5
	MOVUPD  32(SI)(AX*1), X6
	MOVUPD  48(SI)(AX*1), X7
	ADDPD   X4, X0
	ADDPD   X5, X1
	ADDPD   X6, X2
	ADDPD   X7, X3
	ADDQ    $4, DI
	JMP     adds

endadds:
	FIRE_STEP
	CMPQ R10, $0
	JNE  hardreset
	SOFT_RESET
	JMP  next

hardreset:
	HARD_RESET

next:
	INCQ R11
	JMP  step

done:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVQ   R13, ret+120(FP)
	RET

// func segPanel(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[8]float64, th float64, hard bool) uint64
//
// blockPanel with each step's spike list given as rows (lo, hi, off)
// segments of flat. Per segment the panel base is advanced by off lines
// once (CX = &panel[off*8]), so each spike costs the same load/add
// sequence as in blockPanel. Threshold, reset and the fired-step commit are
// blockPanel's. R14 is scratch: ABI0 assembly may clobber it (and X15),
// the ABI wrapper restores both on return to Go.
TEXT ·segPanel(SB), NOSPLIT, $0-136
	MOVQ     panel_base+0(FP), SI
	MOVQ     flat_base+24(FP), DI
	MOVQ     segs_base+48(FP), R8
	MOVQ     fires_base+80(FP), R9
	MOVQ     acc+104(FP), DX
	MOVSD    th+112(FP), X12
	UNPCKLPD X12, X12
	MOVBQZX  hard+120(FP), R10

	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3

	XORQ R11, R11 // k
	XORQ R13, R13 // fired-steps bitmask

step:
	CMPQ  R11, fires_len+88(FP)
	JGE   done
	MOVQ  rows+72(FP), R14 // rows left in step k
	TESTQ R14, R14
	JZ    thresh

row:
	MOVLQSX 8(R8), CX
	SHLQ    $6, CX
	ADDQ    SI, CX            // CX = &panel[off*8]
	MOVLQSX (R8), AX
	MOVLQSX 4(R8), BX
	LEAQ    (DI)(AX*4), R12   // &flat[lo]
	LEAQ    (DI)(BX*4), BX    // &flat[hi]
	ADDQ    $12, R8
	CMPQ    R12, BX
	JGE     endrow

adds:
	MOVLQSX (R12), AX
	SHLQ    $6, AX
	MOVUPD  (CX)(AX*1), X4
	MOVUPD  16(CX)(AX*1), X5
	MOVUPD  32(CX)(AX*1), X6
	MOVUPD  48(CX)(AX*1), X7
	ADDPD   X4, X0
	ADDPD   X5, X1
	ADDPD   X6, X2
	ADDPD   X7, X3
	ADDQ    $4, R12
	CMPQ    R12, BX
	JLT     adds

endrow:
	DECQ R14
	JNZ  row

thresh:
	FIRE_STEP
	CMPQ R10, $0
	JNE  hardreset
	SOFT_RESET
	JMP  next

hardreset:
	HARD_RESET

next:
	INCQ R11
	JMP  step

done:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVQ   R13, ret+128(FP)
	RET

// func poolPanel(counts []uint64, fires []uint8, acc *[8]float64, pw, th float64, hard bool) uint64
//
// Per step the eight lane counts (bytes of counts[k]) are spread so that
// each 64-bit lane of X4..X7 holds its count in all eight bytes; a round
// then forms the lane mask count == 0 with one PCMPEQB, selects acc or
// acc+pw bitwise (AND/ANDN/OR — a lane without a tap keeps its exact bits)
// and decrements the counts with unsigned saturation. Rounds repeat until
// every count is zero, so lane i receives exactly counts[k] byte i IEEE
// additions of pw, as in the scalar reference. Threshold, reset and the
// fired-step commit are blockPanel's; X15 is scratch as R14 is in segPanel.
TEXT ·poolPanel(SB), NOSPLIT, $0-88
	MOVQ     counts_base+0(FP), SI
	MOVQ     fires_base+24(FP), R9
	MOVQ     fires_len+32(FP), CX
	MOVQ     acc+48(FP), DX
	MOVSD    pw+56(FP), X13
	UNPCKLPD X13, X13
	MOVSD    th+64(FP), X12
	UNPCKLPD X12, X12
	MOVBQZX  hard+72(FP), R10

	PXOR       X14, X14 // zero
	MOVQ       $0x0101010101010101, AX
	MOVQ       AX, X15
	PUNPCKLQDQ X15, X15 // 1 in every byte

	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3

	XORQ R11, R11 // k
	XORQ R13, R13 // fired-steps bitmask

step:
	CMPQ  R11, CX
	JGE   done
	MOVQ  (SI)(R11*8), AX
	TESTQ AX, AX
	JZ    thresh

	MOVQ      AX, X10 // raw counts: the loop's exit test
	MOVQ      AX, X4
	PUNPCKLBW X4, X4
	MOVO      X4, X6
	PUNPCKLWL X4, X4  // lanes 0-3, each count in four bytes
	PUNPCKHWL X6, X6  // lanes 4-7
	MOVO      X4, X5
	MOVO      X6, X7
	PUNPCKLLQ X4, X4  // lanes 0,1
	PUNPCKHLQ X5, X5  // lanes 2,3
	PUNPCKLLQ X6, X6  // lanes 4,5
	PUNPCKHLQ X7, X7  // lanes 6,7

round:
	MOVO    X4, X8
	PCMPEQB X14, X8
	MOVAPD  X0, X9
	ADDPD   X13, X9
	ANDPD   X8, X0
	ANDNPD  X9, X8
	ORPD    X8, X0
	PSUBUSB X15, X4

	MOVO    X5, X8
	PCMPEQB X14, X8
	MOVAPD  X1, X9
	ADDPD   X13, X9
	ANDPD   X8, X1
	ANDNPD  X9, X8
	ORPD    X8, X1
	PSUBUSB X15, X5

	MOVO    X6, X8
	PCMPEQB X14, X8
	MOVAPD  X2, X9
	ADDPD   X13, X9
	ANDPD   X8, X2
	ANDNPD  X9, X8
	ORPD    X8, X2
	PSUBUSB X15, X6

	MOVO    X7, X8
	PCMPEQB X14, X8
	MOVAPD  X3, X9
	ADDPD   X13, X9
	ANDPD   X8, X3
	ANDNPD  X9, X8
	ORPD    X8, X3
	PSUBUSB X15, X7

	PSUBUSB  X15, X10
	MOVO     X10, X11
	PCMPEQB  X14, X11
	PMOVMSKB X11, BX
	CMPQ     BX, $0xFFFF
	JNE      round

thresh:
	FIRE_STEP
	CMPQ R10, $0
	JNE  hardreset
	SOFT_RESET
	JMP  next

hardreset:
	HARD_RESET

next:
	INCQ R11
	JMP  step

done:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVQ   R13, ret+80(FP)
	RET
