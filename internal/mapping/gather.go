package mapping

import "resparc/internal/energy"

// Gather is the static row-gather structure of one layer's MCAs, through
// which the chip accountant (internal/core) and the mapper's cost model both
// replay spike vectors. Each MCA's driven-row count is gathered rather than
// scattered: its input rows are stored as (64-bit spike storage word, bit
// mask) pairs, so a visit costs one popcount per mapped (MCA, word) pair
// however dense the spikes are.
type Gather struct {
	// MCA a's driven rows are Σ popcount(spikes.Words()[Word[k]] & Mask[k])
	// over k in [Off[a], Off[a+1]). A mask holds distinct bits of one
	// storage word; an input wired to several rows of one MCA opens a new
	// pair for each repeat, so it counts once per driven row.
	Off  []int32
	Word []int32
	Mask []uint64
	// Runs are the contiguous same-mPE MCA runs in allocation order. An
	// mPE's buffers receive each source packet word once and fan it out to
	// the run's MCAs; run r's packet words are Words[r.WordLo:r.WordHi], in
	// first-encounter order.
	Runs  []MPERun
	Words []int32
	// MCAs holds each MCA's per-activation constants.
	MCAs []GatherMCA
	// NWords is the packet words of the layer's input vector.
	NWords int
}

// MPERun is one contiguous run of same-mPE MCAs [MCALo, MCAHi) with its
// packet-word list Gather.Words[WordLo:WordHi].
type MPERun struct{ MCALo, MCAHi, WordLo, WordHi int32 }

// GatherMCA is one MCA's per-activation constants.
type GatherMCA struct {
	// FactorXbar is the crossbar energy per driven row: every cross-point
	// on a driven row conducts, used cells at programmed conductance, idle
	// cells at the GMin pair (unless Params.GateIdleColumns gates them).
	FactorXbar float64
	// Outs is the MCA's output column count, Group its neuron group.
	Outs, Group int32
}

// NewGather builds the gather of layer mapping lm on n x n crossbars, with
// packet words packetWidth bits wide. Runs follow the MCAs' MPE fields, so
// lm must be placed (or at least carry each MCA's mPE relative to the
// layer's first).
func NewGather(lm *LayerMapping, n int, p energy.Params, packetWidth int) Gather {
	w := packetWidth
	g := Gather{
		Off:    make([]int32, len(lm.MCAs)+1),
		MCAs:   make([]GatherMCA, len(lm.MCAs)),
		NWords: (lm.Layer.InSize() + w - 1) / w,
	}
	// stamp[word] is the 1-based run that last listed the packet word.
	stamp := make([]int32, g.NWords)
	run := int32(0)
	curMPE := -1
	mcaLo, wordLo := int32(0), int32(0)
	for ai := range lm.MCAs {
		mca := &lm.MCAs[ai]
		if mca.MPE != curMPE {
			if ai > 0 {
				g.Runs = append(g.Runs, MPERun{mcaLo, int32(ai), wordLo, int32(len(g.Words))})
				mcaLo, wordLo = int32(ai), int32(len(g.Words))
			}
			curMPE = mca.MPE
			run++
		}
		usedPerRow := 0.0
		if len(mca.Inputs) > 0 {
			usedPerRow = float64(mca.Taps) / float64(len(mca.Inputs))
		}
		idlePerRow := float64(n) - usedPerRow
		if p.GateIdleColumns {
			idlePerRow = 0
		}
		g.MCAs[ai] = GatherMCA{
			FactorXbar: usedPerRow*p.XbarCellActive + idlePerRow*p.XbarCellActive*p.XbarIdleFrac,
			Outs:       int32(len(mca.Outputs)),
			Group:      int32(mca.Group),
		}
		lastWord := -1
		for _, in := range mca.Inputs {
			sw, bit := in>>6, uint64(1)<<(in&63)
			if k := len(g.Word) - 1; k >= int(g.Off[ai]) && g.Word[k] == sw && g.Mask[k]&bit == 0 {
				g.Mask[k] |= bit
			} else {
				g.Word = append(g.Word, sw)
				g.Mask = append(g.Mask, bit)
			}
			if word := int(in) / w; word != lastWord {
				lastWord = word
				if stamp[word] != run {
					stamp[word] = run
					g.Words = append(g.Words, int32(word))
				}
			}
		}
		g.Off[ai+1] = int32(len(g.Word))
	}
	if len(lm.MCAs) > 0 {
		g.Runs = append(g.Runs, MPERun{mcaLo, int32(len(lm.MCAs)), wordLo, int32(len(g.Words))})
	}
	return g
}
