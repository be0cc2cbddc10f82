package compiler

import (
	"sort"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// emit rewrites the program: swapped loads become RCMP, REC instructions are
// inserted immediately before each checkpointed leaf producer, dead stores
// (optionally) become NOPs, and slice bodies terminated by RTN are appended
// past the program end, reachable only through RCMP.
//
// Placement note: the paper places REC *after* the leaf's original
// instruction (§3.1.2); we place it immediately *before*, so the source
// registers trivially still hold the leaf's inputs even when the leaf
// overwrites one of its own sources (dst == src). The semantics — Hist
// holds the most recent dynamic instance's inputs — are identical.
func emit(model *energy.Model, prog *isa.Program, prof *profile.Profile, selected []*rslice.Slice, opts Options, b *builder) *Annotated {
	sort.Slice(selected, func(i, j int) bool { return selected[i].LoadPC < selected[j].LoadPC })

	ann := &Annotated{
		Original:         prog,
		RecSpecs:         make(map[int]RecSpec),
		EliminatedStores: make(map[int]bool),
		ElimNOPPCs:       make(map[int]bool),
		DeadStoreElim:    opts.EliminateDeadStores,
	}

	swapped := make(map[int]*SliceInfo, len(selected))
	histNext := 0
	type pendingRec struct {
		spec    RecSpec
		sliceID int
	}
	recsAt := make(map[int][]pendingRec) // original leaf PC -> RECs to insert
	for id, s := range selected {
		// Every binary selected from one Analysis shares its slices; number
		// a shallow copy so the shared slice stays unnumbered.
		cp := *s
		cp.ID = id
		s = &cp
		eld := prof.Loads[s.LoadPC].ExpectedLoadEnergy(model)
		erc := b.sliceCost(s)
		si := &SliceInfo{
			ID: id, Slice: s, LoadPC: s.LoadPC,
			ExpectedEld: eld, ExpectedErc: erc,
			Selected: erc < eld,
		}
		// One Hist entry per node with at least one Hist-kind input.
		histOf := make(map[*rslice.Node]int)
		var nodeOrder []*rslice.Node
		for _, in := range s.HistInputs() {
			if _, ok := histOf[in.Node]; !ok {
				histOf[in.Node] = histNext
				nodeOrder = append(nodeOrder, in.Node)
				histNext++
			}
		}
		si.HistEntries = len(nodeOrder)
		if len(nodeOrder) > 0 {
			si.HistBase = histOf[nodeOrder[0]]
		}
		for _, n := range nodeOrder {
			spec := RecSpec{HistID: histOf[n]}
			for _, in := range s.HistInputs() {
				if in.Node == n {
					spec.Regs[in.Operand] = in.Reg
					spec.Mask |= 1 << uint(in.Operand)
				}
			}
			recsAt[n.PC] = append(recsAt[n.PC], pendingRec{spec: spec, sliceID: id})
		}
		si.Body = buildBody(s, histOf)
		swapped[s.LoadPC] = si
		ann.Slices = append(ann.Slices, si)
	}

	// Dead-store elimination (§1): a store is redundant once every load
	// consuming its values is swapped. Stores never observed by any load
	// are conservatively kept — they may be program output.
	if opts.EliminateDeadStores {
		sw := make(map[int]bool, len(swapped))
		for pc := range swapped {
			sw[pc] = true
		}
		for _, pc := range prof.DeadStorePCs(sw, false) {
			ann.EliminatedStores[pc] = true
		}
	}

	// Layout pass: positions of REC groups and original instructions.
	groupStart := make([]int, len(prog.Code))
	instrPos := make([]int, len(prog.Code))
	pos := 0
	for pc := range prog.Code {
		groupStart[pc] = pos
		pos += len(recsAt[pc])
		instrPos[pc] = pos
		pos++
	}

	code := make([]isa.Instr, 0, pos+totalBodyLen(selected))
	for pc, in := range prog.Code {
		for _, pr := range recsAt[pc] {
			rec := isa.Instr{
				Op: isa.REC, SliceID: int32(pr.sliceID), LeafAddr: int32(pr.spec.HistID),
				Src1: pr.spec.Regs[0], Src2: pr.spec.Regs[1], Dst: pr.spec.Regs[2],
			}
			ann.RecSpecs[len(code)] = pr.spec
			code = append(code, rec)
		}
		switch {
		case swapped[pc] != nil:
			si := swapped[pc]
			si.RcmpPC = len(code)
			code = append(code, isa.Instr{
				Op: isa.RCMP, Dst: in.Dst, Src1: in.Src1, Imm: in.Imm,
				SliceID: int32(si.ID),
			})
		case ann.EliminatedStores[pc]:
			ann.ElimNOPPCs[len(code)] = true
			code = append(code, isa.Instr{Op: isa.NOP})
		default:
			fixed := in
			if isBranchWithTarget(in.Op) {
				fixed.Imm = int64(groupStart[in.Imm])
			}
			code = append(code, fixed)
		}
	}

	// Append slice bodies; patch RCMP targets.
	for _, si := range ann.Slices {
		si.EntryPC = len(code)
		code[si.RcmpPC].Target = int32(si.EntryPC)
		for _, bi := range si.Body {
			code = append(code, bi.In)
		}
		code = append(code, isa.Instr{Op: isa.RTN, SliceID: int32(si.ID)})
	}

	ann.Prog = &isa.Program{Code: code, Name: prog.Name + "+amnesic"}
	ann.PCMap = instrPos
	return ann
}

func isBranchWithTarget(op isa.Op) bool {
	switch op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.JMP:
		return true
	}
	return false
}

func totalBodyLen(selected []*rslice.Slice) int {
	n := 0
	for _, s := range selected {
		n += s.Len() + 1 // + RTN
	}
	return n
}

// buildBody resolves operand routing for each recomputing instruction: the
// compile-time equivalent of the hardware Renamer + Hist/registerfile
// selection of §3.2/§3.5.
func buildBody(s *rslice.Slice, histOf map[*rslice.Node]int) []BodyInstr {
	bodyIdx := make(map[*rslice.Node]int, len(s.Nodes))
	for i, n := range s.Nodes {
		bodyIdx[n] = i
	}
	kindOf := make(map[*rslice.Node][3]rslice.InputKind)
	has := make(map[*rslice.Node][3]bool)
	for _, in := range s.Inputs {
		k := kindOf[in.Node]
		h := has[in.Node]
		k[in.Operand] = in.Kind
		h[in.Operand] = true
		kindOf[in.Node] = k
		has[in.Node] = h
	}

	body := make([]BodyInstr, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		bi := BodyInstr{In: n.In, Node: n, ReadOnlyLoad: n.ReadOnlyLoad}
		for i := range bi.Srcs {
			bi.Srcs[i] = OperandSource{Kind: SrcNone}
		}
		for _, opIdx := range operandIdxs(n.In) {
			if c, ok := n.Children[opIdx]; ok {
				bi.Srcs[opIdx] = OperandSource{Kind: SrcSFile, BodyIdx: bodyIdx[c]}
				continue
			}
			r := rslice.OperandReg(n.In, opIdx)
			if r == isa.R0 {
				bi.Srcs[opIdx] = OperandSource{Kind: SrcZero}
				continue
			}
			if has[n][opIdx] && kindOf[n][opIdx] == rslice.InputHist {
				bi.Srcs[opIdx] = OperandSource{Kind: SrcHist, HistID: histOf[n], Slot: opIdx}
				continue
			}
			bi.Srcs[opIdx] = OperandSource{Kind: SrcLive, Reg: r}
		}
		body = append(body, bi)
	}
	return body
}
