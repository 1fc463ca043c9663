//go:build amd64 && !purego

#include "textflag.h"

// The step epilogue shared by blockPanelAVX2, segPanelAVX2 and
// poolPanelAVX2. Register contract: accumulators in Y0 (lanes 0-3) and Y1
// (lanes 4-7), th broadcast in Y12, fires base in R9, step k in R11,
// fired-steps mask in R13; Y8, Y9, AX and BX are clobbered.
//
// FIRE_STEP runs the packed threshold test (Y8, Y9 = th <= acc per lane,
// the packed equivalent of the scalar acc[i] >= th including its NaN
// behavior: a NaN lane never fires), stores the step's fired-lane byte to
// fires[k] and sets bit k of R13 by CMOV when any lane fired. Both the
// reset and that bit run on every step: at the networks' rates whether a
// group fires on a step is hard to predict, and a branch on it mispredicted
// often enough to cost more than the reset it skipped.
//
// The AVX2 bodies use VEX-encoded instructions only: a legacy SSE
// instruction (say MOVQ AX, X10) while the upper YMM halves are dirty pays
// a state transition, and two of them per step made poolPanelAVX2 over ten
// times slower than the SSE2 kernel it replaced.
#define FIRE_STEP \
	VCMPPD    $2, Y0, Y12, Y8; \
	VCMPPD    $2, Y1, Y12, Y9; \
	VMOVMSKPD Y8, AX; \
	VMOVMSKPD Y9, BX; \
	SHLQ      $4, BX; \
	ORQ       BX, AX; \
	MOVB      AX, (R9)(R11*1); \
	MOVQ      R13, BX; \
	BTSQ      R11, BX; \
	TESTQ     AX, AX; \
	CMOVQNE   BX, R13

// SOFT_RESET subtracts the mask-selected threshold: p - th on fired lanes,
// p - 0.0 == p bitwise on the rest (also when no lane fired).
#define SOFT_RESET \
	VANDPD Y12, Y8, Y8; \
	VANDPD Y12, Y9, Y9; \
	VSUBPD Y8, Y0, Y0; \
	VSUBPD Y9, Y1, Y1

// HARD_RESET clears fired lanes to +0 (acc = ^mask & acc).
#define HARD_RESET \
	VANDNPD Y0, Y8, Y0; \
	VANDNPD Y1, Y9, Y1

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

// func blockPanelAVX2(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[8]float64, th float64, hard bool) uint64
//
// Integrate one packed 8-lane panel across a whole temporal block with the
// accumulators held in Y0 (lanes 0-3) and Y1 (lanes 4-7). Step k's spike
// indices are flat[offs[k]:offs[k+1]]; each adds its 64-byte panel line
// with two memory-operand VADDPDs (independent per-lane IEEE adds, in list
// order), then FIRE_STEP thresholds the step and the branchless reset
// runs — on every step, see FIRE_STEP. The upper YMM halves are cleared
// before returning so the caller's SSE code pays no transition penalty.
TEXT ·blockPanelAVX2(SB), NOSPLIT, $0-128
	MOVQ         panel_base+0(FP), SI
	MOVQ         flat_base+24(FP), R12
	MOVQ         offs_base+48(FP), R8
	MOVQ         fires_base+72(FP), R9
	MOVQ         fires_len+80(FP), CX
	MOVQ         acc+96(FP), DX
	VBROADCASTSD th+104(FP), Y12
	MOVBQZX      hard+112(FP), R10

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1

	// DI = &flat[offs[0]] (offs entries are absolute into flat).
	MOVLQSX (R8), AX
	LEAQ    (R12)(AX*4), DI

	XORQ R11, R11 // k
	XORQ R13, R13 // fired-steps bitmask

step:
	CMPQ    R11, CX
	JGE     done
	MOVLQSX 4(R8)(R11*4), AX // offs[k+1]
	LEAQ    (R12)(AX*4), BX  // end of step k's spikes
	CMPQ    DI, BX
	JGE     thresh

adds:
	MOVLQSX (DI), AX
	SHLQ    $6, AX
	VADDPD  (SI)(AX*1), Y0, Y0
	VADDPD  32(SI)(AX*1), Y1, Y1
	ADDQ    $4, DI
	CMPQ    DI, BX
	JLT     adds

thresh:
	FIRE_STEP
	TESTQ R10, R10
	JNZ   hardreset
	SOFT_RESET
	JMP   next

hardreset:
	HARD_RESET

next:
	INCQ R11
	JMP  step

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	MOVQ    R13, ret+120(FP)
	RET

// func segPanelAVX2(panel []float64, flat []int32, segs []int32, rows int, fires []uint8, acc *[8]float64, th float64, hard bool) uint64
//
// blockPanelAVX2 with each step's spike list given as rows (lo, hi, off)
// segments of flat. Per segment the panel base is advanced by off lines
// once (CX = &panel[off*8]), so each spike costs the same index load and two
// VADDPDs as in blockPanelAVX2. Threshold, reset and the fired-step commit
// are blockPanelAVX2's. R14 is scratch: ABI0 assembly may clobber it (and
// X15), the ABI wrapper restores both on return to Go.
TEXT ·segPanelAVX2(SB), NOSPLIT, $0-136
	MOVQ         panel_base+0(FP), SI
	MOVQ         flat_base+24(FP), DI
	MOVQ         segs_base+48(FP), R8
	MOVQ         fires_base+80(FP), R9
	MOVQ         acc+104(FP), DX
	VBROADCASTSD th+112(FP), Y12
	MOVBQZX      hard+120(FP), R10

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1

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
	ADDQ    SI, CX          // CX = &panel[off*8]
	MOVLQSX (R8), AX
	MOVLQSX 4(R8), BX
	LEAQ    (DI)(AX*4), R12 // &flat[lo]
	LEAQ    (DI)(BX*4), BX  // &flat[hi]
	ADDQ    $12, R8
	CMPQ    R12, BX
	JGE     endrow

adds:
	MOVLQSX (R12), AX
	SHLQ    $6, AX
	VADDPD  (CX)(AX*1), Y0, Y0
	VADDPD  32(CX)(AX*1), Y1, Y1
	ADDQ    $4, R12
	CMPQ    R12, BX
	JLT     adds

endrow:
	DECQ R14
	JNZ  row

thresh:
	FIRE_STEP
	TESTQ R10, R10
	JNZ   hardreset
	SOFT_RESET
	JMP   next

hardreset:
	HARD_RESET

next:
	INCQ R11
	JMP  step

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	MOVQ    R13, ret+128(FP)
	RET

// Byte-spread tables for poolPanelAVX2: VPSHUFB with poolSpreadLo copies
// count bytes 0-3 of a broadcast counts word into all eight bytes of 64-bit
// lanes 0-3, poolSpreadHi copies bytes 4-7 (VPSHUFB indexes within each
// 128-bit half, which holds the whole word after the broadcast).
DATA poolSpreadLo<>+0(SB)/8, $0x0000000000000000
DATA poolSpreadLo<>+8(SB)/8, $0x0101010101010101
DATA poolSpreadLo<>+16(SB)/8, $0x0202020202020202
DATA poolSpreadLo<>+24(SB)/8, $0x0303030303030303
GLOBL poolSpreadLo<>(SB), RODATA|NOPTR, $32

DATA poolSpreadHi<>+0(SB)/8, $0x0404040404040404
DATA poolSpreadHi<>+8(SB)/8, $0x0505050505050505
DATA poolSpreadHi<>+16(SB)/8, $0x0606060606060606
DATA poolSpreadHi<>+24(SB)/8, $0x0707070707070707
GLOBL poolSpreadHi<>(SB), RODATA|NOPTR, $32

// func poolPanelAVX2(counts []uint64, fires []uint8, acc *[8]float64, pw, th float64, hard bool) uint64
//
// Per step the eight lane counts (bytes of counts[k]) are spread so that
// each 64-bit lane of Y4 (lanes 0-3) and Y5 (lanes 4-7) holds its count in
// all eight bytes; a round then forms the lane mask count == 0 with one
// VPCMPEQB, selects acc or acc+pw with VBLENDVPD (an exact select: a lane
// without a tap keeps its bits) and decrements the counts with unsigned
// saturation. Rounds repeat until every count is zero, so lane i receives
// exactly counts[k] byte i IEEE additions of pw, as in the scalar
// reference. Threshold, reset and the fired-step commit are FIRE_STEP and
// SOFT_RESET/HARD_RESET; X15 is scratch (ABI0 assembly may clobber it, the
// ABI wrapper restores it).
TEXT ·poolPanelAVX2(SB), NOSPLIT, $0-88
	MOVQ         counts_base+0(FP), SI
	MOVQ         fires_base+24(FP), R9
	MOVQ         fires_len+32(FP), CX
	MOVQ         acc+48(FP), DX
	VBROADCASTSD pw+56(FP), Y13
	VBROADCASTSD th+64(FP), Y12
	MOVBQZX      hard+72(FP), R10

	VPXOR        Y14, Y14, Y14          // zero
	MOVQ         $0x0101010101010101, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15               // 1 in every byte
	VMOVDQU      poolSpreadLo<>(SB), Y6
	VMOVDQU      poolSpreadHi<>(SB), Y7

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1

	XORQ R11, R11 // k
	XORQ R13, R13 // fired-steps bitmask

step:
	CMPQ  R11, CX
	JGE   done
	MOVQ  (SI)(R11*8), AX
	TESTQ AX, AX
	JZ    thresh

	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10
	VPSHUFB      Y6, Y10, Y4 // lanes 0-3, each count in eight bytes
	VPSHUFB      Y7, Y10, Y5 // lanes 4-7

round:
	VPCMPEQB  Y14, Y4, Y2
	VPCMPEQB  Y14, Y5, Y3
	VADDPD    Y13, Y0, Y10
	VADDPD    Y13, Y1, Y11
	VBLENDVPD Y2, Y0, Y10, Y0 // count == 0 ? acc : acc+pw
	VBLENDVPD Y3, Y1, Y11, Y1
	VPSUBUSB  Y15, Y4, Y4
	VPSUBUSB  Y15, Y5, Y5
	VPOR      Y4, Y5, Y2
	VPTEST    Y2, Y2
	JNZ       round

thresh:
	FIRE_STEP
	TESTQ R10, R10
	JNZ   hardreset
	SOFT_RESET
	JMP   next

hardreset:
	HARD_RESET

next:
	INCQ R11
	JMP  step

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	MOVQ    R13, ret+80(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
