package mapping

import (
	"math/bits"
	"slices"

	"resparc/internal/bitvec"
	"resparc/internal/cost"
	"resparc/internal/energy"
)

// Gather is the static row-gather structure of one layer's MCAs, through
// which the chip accountant (internal/core) and the mapper's cost model both
// tally spike vectors (Visit). Each MCA's driven-row count is gathered
// rather than scattered: its input rows are stored as (64-bit spike storage
// word, bit mask) pairs, so a visit costs one popcount per pair however
// dense the spikes are. MCAs with identical pair lists — the column groups
// of a layer wider than one crossbar, which share their inputs (§3.1.2) —
// drive the same rows on every visit, so each distinct list is stored and
// gathered once.
type Gather struct {
	// List l's driven rows are Σ popcount(spikes.Words()[Word[k]] & Mask[k])
	// over k in [Off[l], Off[l+1]). A mask holds distinct bits of one
	// storage word; an input wired to several rows of one MCA opens a new
	// pair for each repeat, so it counts once per driven row.
	Off  []int32
	Word []int32
	Mask []uint64
	// Words holds, for each contiguous run of same-mPE MCAs in allocation
	// order, the packet words the run's mPE receives: its buffers get each
	// source word once and fan it out to the run's MCAs.
	Words []int32
	// MCAs holds each MCA's per-activation constants.
	MCAs []GatherMCA
	// Factors[c] is the crossbar energy per driven row of the MCAs of class
	// c: every cross-point on a driven row conducts, used cells at
	// programmed conductance, idle cells at the GMin pair (unless
	// Params.GateIdleColumns gates them). Classes are numbered in order of
	// first appearance.
	Factors []float64
	// NWords is the packet words of the layer's input vector, Width their
	// width in bits, and Groups the layer's neuron groups.
	NWords, Width, Groups int

	// What Visit tallies per distinct list rather than per MCA: lists[l]
	// sums the MCAs gathering list l, classUses[classOff[c]:classOff[c+1]]
	// are class c's (list, MCA count) pairs, and shared is set when some
	// neuron group spans more than one MCA (else a visit's time
	// multiplexing is at most one).
	lists     []listUse
	classUses []classUse
	classOff  []int32
	shared    bool
}

// listUse sums the MCAs gathering one row list: their count, output
// columns, and how many live outside their group owner's mPE.
type listUse struct{ n, outs, ext int32 }

// classUse is n MCAs of one crossbar-factor class gathering row list list.
type classUse struct{ list, n int32 }

// GatherMCA is one MCA's per-activation constants.
type GatherMCA struct {
	// List is the MCA's row list and Class its crossbar-factor class.
	List, Class int32
	// Outs is the MCA's output column count, Group its neuron group, and
	// Ext 1 when the MCA lives outside the mPE of its group's first MCA
	// (the group's owner, which receives the partial sums), else 0.
	Outs, Group, Ext int32
}

// NewGather builds the gather of layer mapping lm on n x n crossbars, with
// packet words packetWidth bits wide. The mPE runs follow the MCAs' MPE
// fields, so lm must be placed (or at least carry each MCA's mPE relative
// to the layer's first).
func NewGather(lm *LayerMapping, n int, p energy.Params, packetWidth int) Gather {
	w := packetWidth
	g := Gather{
		Off:    append(make([]int32, 0, len(lm.MCAs)+1), 0),
		MCAs:   make([]GatherMCA, len(lm.MCAs)),
		NWords: (lm.Layer.InSize() + w - 1) / w,
		Width:  w,
		Groups: lm.Groups,
	}
	// stamp[word] is the 1-based run that last listed the packet word.
	stamp := make([]int32, g.NWords)
	run := int32(0)
	curMPE := -1
	owner := make([]int, lm.Groups)
	for i := range owner {
		owner[i] = -1
	}
	// Distinct lists by hash of their pairs; next chains lists whose hashes
	// collide, and a candidate is accepted only on an exact compare.
	head := make(map[uint64]int32, len(lm.MCAs))
	next := make([]int32, 0, len(lm.MCAs))
	var word []int32
	var mask []uint64
	for ai := range lm.MCAs {
		mca := &lm.MCAs[ai]
		if mca.MPE != curMPE {
			curMPE = mca.MPE
			run++
		}
		if owner[mca.Group] < 0 {
			owner[mca.Group] = mca.MPE
		}
		usedPerRow := 0.0
		if len(mca.Inputs) > 0 {
			usedPerRow = float64(mca.Taps) / float64(len(mca.Inputs))
		}
		idlePerRow := float64(n) - usedPerRow
		if p.GateIdleColumns {
			idlePerRow = 0
		}
		f := usedPerRow*p.XbarCellActive + idlePerRow*p.XbarCellActive*p.XbarIdleFrac
		c := int32(slices.Index(g.Factors, f))
		if c < 0 {
			c = int32(len(g.Factors))
			g.Factors = append(g.Factors, f)
		}

		word, mask = word[:0], mask[:0]
		lastWord := -1
		for _, in := range mca.Inputs {
			sw, bit := in>>6, uint64(1)<<(in&63)
			if k := len(word) - 1; k >= 0 && word[k] == sw && mask[k]&bit == 0 {
				mask[k] |= bit
			} else {
				word = append(word, sw)
				mask = append(mask, bit)
			}
			if wd := int(in) / w; wd != lastWord {
				lastWord = wd
				if stamp[wd] != run {
					stamp[wd] = run
					g.Words = append(g.Words, int32(wd))
				}
			}
		}
		h := hashPairs(word, mask)
		list, ok := head[h]
		for ok && !(slices.Equal(g.Word[g.Off[list]:g.Off[list+1]], word) &&
			slices.Equal(g.Mask[g.Off[list]:g.Off[list+1]], mask)) {
			list, ok = next[list], next[list] >= 0
		}
		if !ok {
			list = int32(len(g.Off) - 1)
			prev, chained := head[h]
			if !chained {
				prev = -1
			}
			next = append(next, prev)
			head[h] = list
			g.Word = append(g.Word, word...)
			g.Mask = append(g.Mask, mask...)
			g.Off = append(g.Off, int32(len(g.Word)))
		}
		ext := int32(0)
		if mca.MPE != owner[mca.Group] {
			ext = 1
		}
		g.MCAs[ai] = GatherMCA{
			List: list, Class: c,
			Outs: int32(len(mca.Outputs)), Group: int32(mca.Group), Ext: ext,
		}
	}
	g.aggregate()
	return g
}

// aggregate derives the per-list tables Visit tallies through from the
// per-MCA constants.
func (g *Gather) aggregate() {
	g.lists = make([]listUse, len(g.Off)-1)
	perGroup := make([]int32, g.Groups)
	g.classOff = make([]int32, len(g.Factors)+1)
	for _, m := range g.MCAs {
		lu := &g.lists[m.List]
		lu.n++
		lu.outs += m.Outs
		lu.ext += m.Ext
		if perGroup[m.Group]++; perGroup[m.Group] > 1 {
			g.shared = true
		}
	}
	// Class by class, each list's MCA count in the class, lists in order of
	// first appearance: at[l] is 1 + list l's position among the current
	// class's uses, valid when seen[l] marks the class.
	at := make([]int32, len(g.lists))
	seen := make([]int32, len(g.lists))
	g.classUses = make([]classUse, 0, len(g.lists))
	for c := range g.Factors {
		for _, m := range g.MCAs {
			if int(m.Class) != c {
				continue
			}
			if seen[m.List] != int32(c)+1 {
				seen[m.List] = int32(c) + 1
				g.classUses = append(g.classUses, classUse{list: m.List})
				at[m.List] = int32(len(g.classUses))
			}
			g.classUses[at[m.List]-1].n++
		}
		g.classOff[c+1] = int32(len(g.classUses))
	}
}

// hashPairs is an FNV-1a style hash of a (word, mask) pair list.
func hashPairs(word []int32, mask []uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for k, sw := range word {
		h = (h ^ uint64(uint32(sw))) * prime
		h = (h ^ mask[k]) * prime
	}
	return h
}

// VisitStats is what one (timestep, layer) visit did beyond its Tally counts:
// the inputs of the stage-duration formula.
type VisitStats struct {
	// Sent is the input vector's packet words holding a spike (all of them
	// without event-driven gating): what a bus broadcast would carry.
	Sent int
	// Delivered is the packets the switch networks delivered, MaxMux the
	// deepest time multiplexing a neuron group reached.
	Delivered, MaxMux int
}

// GatherScratch is a replaying observer's reusable scratch for Visit; the
// zero value is ready to use.
type GatherScratch struct {
	rows, mux []int32
	occ       []uint8
}

// nz is 1 when x is nonzero, else 0, without a branch.
func nz(x uint64) int { return int((x | -x) >> 63) }

// Visit tallies one visit of the layer's input spike vector in into t: the
// MCA activations, integrations and driven rows of the gather and the
// packet words checked and delivered at the mPE buffers. With eventDriven
// unset every mapped MCA activates and every packet word is delivered
// (Fig 13's "w/o"). The bus words and the output spikes depend on the
// layer's placement and output; the caller adds them. t must have
// len(Factors) row classes.
func (g *Gather) Visit(in *bitvec.Bits, eventDriven bool, s *GatherScratch, t *cost.Tally) VisitStats {
	sw := in.Words()
	all := int32(0)
	if !eventDriven {
		all = 1
	}
	// One popcount sum per distinct list; every MCA gathering the list is
	// active when it drove a row (always, without gating).
	nl := len(g.lists)
	if cap(s.rows) < nl {
		s.rows = make([]int32, nl)
	}
	rows := s.rows[:nl]
	var active, integ, ext, anyOn int32
	for l := range rows {
		r := 0
		gm := g.Mask[g.Off[l]:g.Off[l+1]]
		for k, wi := range g.Word[g.Off[l]:g.Off[l+1]] {
			r += bits.OnesCount64(sw[wi] & gm[k])
		}
		rows[l] = int32(r)
		on := int32(nz(uint64(r))) | all
		lu := &g.lists[l]
		active += on * lu.n
		integ += on * lu.outs
		ext += on * lu.ext
		anyOn |= on
	}
	for c := range t.Rows {
		n := 0
		for _, u := range g.classUses[g.classOff[c]:g.classOff[c+1]] {
			n += int(rows[u.list] * u.n)
		}
		t.Rows[c] += n
	}

	// Time multiplexing: the most active MCAs of one neuron group.
	maxMux := anyOn
	if g.shared {
		if cap(s.mux) < g.Groups {
			s.mux = make([]int32, g.Groups)
		}
		mux := s.mux[:g.Groups]
		clear(mux)
		for i := range g.MCAs {
			m := &g.MCAs[i]
			x := mux[m.Group] + (int32(nz(uint64(rows[m.List]))) | all)
			mux[m.Group] = x
			maxMux = max(maxMux, x)
		}
	}
	t.Active += int(active)
	t.Integrations += int(integ)
	t.Ext += int(ext)

	v := VisitStats{Sent: g.NWords, Delivered: len(g.Words), MaxMux: int(maxMux)}
	if eventDriven {
		v.Sent, v.Delivered = 0, 0
		if g.Width == 64 {
			// A packet is one storage word.
			for _, x := range sw {
				v.Sent += nz(x)
			}
			for _, wd := range g.Words {
				v.Delivered += nz(sw[wd])
			}
		} else {
			if cap(s.occ) < g.NWords {
				s.occ = make([]uint8, g.NWords)
			}
			occ := s.occ[:g.NWords]
			for k := range occ {
				lo := k * g.Width
				o := nz(in.LoadBits(lo, min(g.Width, in.Len()-lo)))
				occ[k] = uint8(o)
				v.Sent += o
			}
			for _, wd := range g.Words {
				v.Delivered += int(occ[wd])
			}
		}
	}
	t.Checked += len(g.Words)
	t.Delivered += v.Delivered
	return v
}
