//go:build amd64 && !purego

#include "textflag.h"

// The step epilogue shared by the block kernels. FIRE_TEST(lo, hi) runs the
// packed threshold test on the 8-lane group held in lo (lanes 0-3) and hi
// (lanes 4-7) against th broadcast in Y12: Y8, Y9 = th <= acc per lane, the
// packed equivalent of the scalar acc[i] >= th including its NaN behavior
// (a NaN lane never fires), and AX = the step's fired-lane byte.
// FIRE_MASK(m) then sets bit k (R11) of the fired-steps mask m by CMOV when
// any lane fired. Both clobber BX. Both the reset and that bit run on every
// step: at the networks' rates whether a group fires on a step is hard to
// predict, and a branch on it mispredicted often enough to cost more than
// the reset it skipped.
//
// FIRE_STEP is the single-group epilogue of blockPanelAVX2, segPanelAVX2
// and poolPanelAVX2: the group in Y0 and Y1, its byte stored to fires[k]
// (fires base in R9) and its mask in R13.
//
// The AVX2 bodies use VEX-encoded instructions only: a legacy SSE
// instruction (say MOVQ AX, X10) while the upper YMM halves are dirty pays
// a state transition, and two of them per step made poolPanelAVX2 over ten
// times slower than the SSE2 kernel it replaced.
#define FIRE_TEST(lo, hi) \
	VCMPPD    $2, lo, Y12, Y8; \
	VCMPPD    $2, hi, Y12, Y9; \
	VMOVMSKPD Y8, AX; \
	VMOVMSKPD Y9, BX; \
	SHLQ      $4, BX; \
	ORQ       BX, AX

#define FIRE_MASK(m) \
	MOVQ    m, BX; \
	BTSQ    R11, BX; \
	TESTQ   AX, AX; \
	CMOVQNE BX, m

#define FIRE_STEP \
	FIRE_TEST(Y0, Y1); \
	MOVB AX, (R9)(R11*1); \
	FIRE_MASK(R13)

// SOFT_RESET(lo, hi) subtracts the mask-selected threshold from the group
// held in lo (lanes 0-3) and hi (lanes 4-7), masks in Y8 and Y9: p - th on
// fired lanes, p - 0.0 == p bitwise on the rest (also when no lane fired).
#define SOFT_RESET(lo, hi) \
	VANDPD Y12, Y8, Y8; \
	VANDPD Y12, Y9, Y9; \
	VSUBPD Y8, lo, lo; \
	VSUBPD Y9, hi, hi

// HARD_RESET(lo, hi) clears fired lanes to +0 (acc = ^mask & acc).
#define HARD_RESET(lo, hi) \
	VANDNPD lo, Y8, lo; \
	VANDNPD hi, Y9, hi

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
	SOFT_RESET(Y0, Y1)
	JMP   next

hardreset:
	HARD_RESET(Y0, Y1)

next:
	INCQ R11
	JMP  step

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	MOVQ    R13, ret+120(FP)
	RET

// The fires stores of blockQuadAVX2: QUAD_STOREg writes the fired-lane
// byte in AX to group g's fires[g*kn+k], with R9 = &fires[k] and kn =
// len(offs)-1. BX is clobbered.
#define QUAD_STORE0 \
	MOVB AX, (R9)

#define QUAD_STORE1 \
	MOVQ offs_len+56(FP), BX; \
	MOVB AX, -1(R9)(BX*1)

#define QUAD_STORE2 \
	MOVQ offs_len+56(FP), BX; \
	MOVB AX, -2(R9)(BX*2)

#define QUAD_STORE3 \
	MOVQ offs_len+56(FP), BX; \
	LEAQ -3(BX)(BX*2), BX; \
	MOVB AX, (R9)(BX*1)

// func blockQuadAVX2(panel []float64, flat []int32, offs []int32, fires []uint8, acc *[4][8]float64, th float64, hard bool) (fs0, fs1, fs2, fs3 uint64)
//
// blockPanelAVX2 over four consecutive panels (32 neurons) in one pass over
// the spike list. panel holds the four panels back to back, stride =
// len(panel)/4 doubles apart; group g's accumulators live in Y(2g) (lanes
// 0-3) and Y(2g+1) (lanes 4-7) for the whole block, so each spike costs one
// index load and eight memory-operand VADDPDs, two per group: groups 0 and
// 1 at SI and CX = SI+stride, groups 2 and 3 at the same bases with the
// line offset advanced by R10 = 2*stride. Lanes are independent, so every
// lane sees exactly blockPanelAVX2's adds in list order. Each step ends
// with the packed threshold and branchless reset of all four groups
// (FIRE_TEST, SOFT_RESET/HARD_RESET), group g's fired-lane byte going to
// fires[g*kn+k] and bit k of its mask (DX, R12, R13, R14) being set when it
// fired. The step loop counts each step's spikes down in BX instead of
// comparing against an end pointer, which leaves four registers for the
// masks; kn, hard and acc are read from the argument frame. R14 is scratch
// (see segPanelAVX2).
TEXT ·blockQuadAVX2(SB), NOSPLIT, $0-152
	MOVQ         panel_base+0(FP), SI
	MOVQ         panel_len+8(FP), R10
	SHLQ         $1, R10          // stride in bytes: len(panel)/4 doubles
	LEAQ         (SI)(R10*1), CX  // group 1's panel
	ADDQ         R10, R10         // 2*stride: groups 2 and 3
	MOVQ         flat_base+24(FP), DI
	MOVQ         offs_base+48(FP), R8
	MOVQ         fires_base+72(FP), R9
	MOVQ         acc+96(FP), AX
	VBROADCASTSD th+104(FP), Y12

	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7

	// DI = &flat[offs[0]] (offs entries are absolute into flat).
	MOVLQSX (R8), AX
	LEAQ    (DI)(AX*4), DI

	XORQ R11, R11 // k
	XORQ DX, DX   // fired-steps masks of groups 0-3
	XORQ R12, R12
	XORQ R13, R13
	XORQ R14, R14

step:
	LEAQ    1(R11), AX
	CMPQ    AX, offs_len+56(FP)
	JGE     done
	MOVLQSX 4(R8)(R11*4), BX // offs[k+1]
	MOVLQSX (R8)(R11*4), AX  // offs[k]
	SUBQ    AX, BX           // step k's spike count
	JLE     thresh

adds:
	MOVLQSX (DI), AX
	SHLQ    $6, AX
	VADDPD  (SI)(AX*1), Y0, Y0
	VADDPD  32(SI)(AX*1), Y1, Y1
	VADDPD  (CX)(AX*1), Y2, Y2
	VADDPD  32(CX)(AX*1), Y3, Y3
	ADDQ    R10, AX
	VADDPD  (SI)(AX*1), Y4, Y4
	VADDPD  32(SI)(AX*1), Y5, Y5
	VADDPD  (CX)(AX*1), Y6, Y6
	VADDPD  32(CX)(AX*1), Y7, Y7
	ADDQ    $4, DI
	DECQ    BX
	JNZ     adds

thresh:
	CMPB hard+112(FP), $0
	JNE  hardreset

	FIRE_TEST(Y0, Y1)
	QUAD_STORE0
	FIRE_MASK(DX)
	SOFT_RESET(Y0, Y1)
	FIRE_TEST(Y2, Y3)
	QUAD_STORE1
	FIRE_MASK(R12)
	SOFT_RESET(Y2, Y3)
	FIRE_TEST(Y4, Y5)
	QUAD_STORE2
	FIRE_MASK(R13)
	SOFT_RESET(Y4, Y5)
	FIRE_TEST(Y6, Y7)
	QUAD_STORE3
	FIRE_MASK(R14)
	SOFT_RESET(Y6, Y7)
	JMP next

hardreset:
	FIRE_TEST(Y0, Y1)
	QUAD_STORE0
	FIRE_MASK(DX)
	HARD_RESET(Y0, Y1)
	FIRE_TEST(Y2, Y3)
	QUAD_STORE1
	FIRE_MASK(R12)
	HARD_RESET(Y2, Y3)
	FIRE_TEST(Y4, Y5)
	QUAD_STORE2
	FIRE_MASK(R13)
	HARD_RESET(Y4, Y5)
	FIRE_TEST(Y6, Y7)
	QUAD_STORE3
	FIRE_MASK(R14)
	HARD_RESET(Y6, Y7)

next:
	INCQ R9
	INCQ R11
	JMP  step

done:
	MOVQ    acc+96(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER
	MOVQ    DX, fs0+120(FP)
	MOVQ    R12, fs1+128(FP)
	MOVQ    R13, fs2+136(FP)
	MOVQ    R14, fs3+144(FP)
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
	SOFT_RESET(Y0, Y1)
	JMP   next

hardreset:
	HARD_RESET(Y0, Y1)

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
// SOFT_RESET/HARD_RESET on Y0 and Y1; X15 is scratch (ABI0 assembly may
// clobber it, the ABI wrapper restores it).
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
	SOFT_RESET(Y0, Y1)
	JMP   next

hardreset:
	HARD_RESET(Y0, Y1)

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
