package compiler

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
)

// Operand routing for slice evaluation (evalNode.src): a value >= 0 is the
// index of the child node producing the operand; srcZero reads zero (the
// hardwired register, or an unused slot); srcInput-i reads input i of the
// ground-truth vector.
const (
	srcZero  = -1
	srcInput = -2
)

// evalNode is one slice node resolved to dense indices for evaluation.
type evalNode struct {
	in  isa.Instr
	src [3]int32
	// bad marks an interior load that is not read-only: evaluation always
	// fails on it.
	bad bool
}

// leafInput is one leaf input of a candidate slice by node index.
type leafInput struct {
	node    int32
	operand uint8
	reg     isa.Reg
}

// candState tracks one candidate slice through the validation replay.
//
// The replay establishes, per dynamic load instance, the *ground-truth* leaf
// input vector of the producing computation: when a store feeding this load
// executes, the current checkpoints of all leaf inputs — just used by the
// producer chain — are snapshotted against the stored address. At each load
// the snapshot tells us exactly which binding can supply each input:
//
//   - live:  the architectural register still holds the needed value when
//     the RCMP fires (the consumer loop supplies the current index, or the
//     value never left its register);
//   - hist:  the latest REC checkpoint holds it (§2.2's overwritten
//     register values — loop-invariant parameters whose registers were
//     recycled, scalar temporaries).
//
// Bindings are decided independently per input; a slice is valid only if
// recomputation from the ground-truth inputs reproduced the loaded value on
// every instance and every input has at least one working binding. An
// invalid candidate stays invalid, so the replay stops tracking it.
type candState struct {
	s     *rslice.Slice
	valid bool
	seen  bool
	// ready is set once every input's node has been checkpointed; before
	// that a feeding store records no usable snapshot.
	ready bool
	// fail records why validation rejected the slice (diagnostics).
	fail   string
	nodes  []evalNode  // s.Nodes in post-order
	inputs []leafInput // s.Inputs
	// ck simulates Hist: per node, the input operands of its latest
	// dynamic execution (what a REC placed before it captures), and
	// whether it has executed yet.
	ck       [][3]uint64
	recorded []bool
	// snaps maps each stored address, by page, to its ground-truth input
	// vector (see snapAt); a re-store overwrites the vector in place.
	snaps    map[uint64]*snapPage
	lastPN   uint64
	lastPage *snapPage
	// liveOK / histOK per input.
	liveOK, histOK []bool
	vals           []uint64 // evaluation scratch, per node
}

func newCandState(s *rslice.Slice) *candState {
	idx := make(map[*rslice.Node]int32, len(s.Nodes))
	for i, n := range s.Nodes {
		idx[n] = int32(i)
	}
	cs := &candState{
		s: s, valid: true, ready: len(s.Inputs) == 0,
		nodes:    make([]evalNode, len(s.Nodes)),
		inputs:   make([]leafInput, len(s.Inputs)),
		ck:       make([][3]uint64, len(s.Nodes)),
		recorded: make([]bool, len(s.Nodes)),
		snaps:    make(map[uint64]*snapPage),
		liveOK:   make([]bool, len(s.Inputs)),
		histOK:   make([]bool, len(s.Inputs)),
		vals:     make([]uint64, len(s.Nodes)),
	}
	for i, n := range s.Nodes {
		en := evalNode{in: n.In, src: [3]int32{srcZero, srcZero, srcZero}}
		en.bad = n.In.Op == isa.LD && !n.ReadOnlyLoad
		for opIdx, c := range n.Children {
			en.src[opIdx] = idx[c]
		}
		cs.nodes[i] = en
	}
	// Finalize made every other operand not on the zero register an input.
	for i, in := range s.Inputs {
		cs.inputs[i] = leafInput{node: idx[in.Node], operand: uint8(in.Operand), reg: in.Reg}
		cs.nodes[idx[in.Node]].src[in.Operand] = srcInput - int32(i)
		cs.liveOK[i] = true
		cs.histOK[i] = true
	}
	return cs
}

// snapPage holds the ground-truth input vectors of snapPageWords
// consecutive words, allocated when the first usable one is stored.
type snapPage struct {
	state [snapPageWords]uint8
	vals  []uint64 // snapPageWords vectors of len(inputs) values
}

const snapPageWords = 128

// Snapshot states of one word.
const (
	snapAbsent  = iota // nothing stored here yet
	snapUnready        // stored before all leaf inputs were observed
	snapReady          // vals holds the ground-truth vector
)

// snapAt returns the page of the aligned address addr and the word's index
// in it, creating the page if create is set; nil if the page does not
// exist. Consecutive accesses mostly hit one page, so a one-entry cache
// skips the page map.
func (cs *candState) snapAt(addr uint64, create bool) (*snapPage, int) {
	w := addr >> 3
	if pn := w / snapPageWords; pn != cs.lastPN || cs.lastPage == nil {
		p := cs.snaps[pn]
		if p == nil {
			if !create {
				return nil, 0
			}
			p = new(snapPage)
			cs.snaps[pn] = p
		}
		cs.lastPN, cs.lastPage = pn, p
	}
	return cs.lastPage, int(w % snapPageWords)
}

// record stores the ground-truth input vector for a value just stored at
// addr, or marks the address unusable if some leaf input has not been
// observed yet.
func (cs *candState) record(addr uint64) {
	p, i := cs.snapAt(addr, true)
	if !cs.ready {
		for _, in := range cs.inputs {
			if !cs.recorded[in.node] {
				p.state[i] = snapUnready
				return
			}
		}
		cs.ready = true
	}
	k := len(cs.inputs)
	if p.vals == nil {
		p.vals = make([]uint64, snapPageWords*k)
	}
	p.state[i] = snapReady
	snap := p.vals[i*k : i*k+k]
	for j, in := range cs.inputs {
		snap[j] = cs.ck[in.node][in.operand]
	}
}

// evalSlice recomputes the slice's root value with leaf inputs supplied from
// the ground-truth vector. ok=false on structural failure (a body load
// misaligned or an interior load node).
func (cs *candState) evalSlice(m *mem.Memory, snap []uint64) (uint64, bool) {
	vals := cs.vals
	for i := range cs.nodes {
		n := &cs.nodes[i]
		if n.bad {
			return 0, false
		}
		var ops [3]uint64
		for j, src := range n.src {
			switch {
			case src >= 0:
				ops[j] = vals[src]
			case src <= srcInput:
				ops[j] = snap[srcInput-src]
			}
		}
		if n.in.Op == isa.LD {
			addr := ops[0] + uint64(n.in.Imm)
			if addr&7 != 0 {
				return 0, false
			}
			vals[i] = m.Load(addr)
			continue
		}
		vals[i] = isa.EvalCompute(n.in, ops[0], ops[1], ops[2])
	}
	return vals[len(vals)-1], true
}

// load checks one dynamic instance of the candidate's load: v was loaded
// from addr, and regs is the register file as the RCMP would observe it.
func (cs *candState) load(m *mem.Memory, regs *[isa.NumRegs]uint64, addr, v uint64) {
	cs.seen = true
	state := uint8(snapAbsent)
	p, i := cs.snapAt(addr, false)
	if p != nil {
		state = p.state[i]
	}
	if state != snapReady {
		cs.valid = false
		cs.fail = fmt.Sprintf("no ground-truth snapshot for addr %#x (ok=%v)", addr, state == snapUnready)
		return
	}
	k := len(cs.inputs)
	snap := p.vals[i*k : i*k+k]
	res, ok := cs.evalSlice(m, snap)
	if !ok || res != v {
		cs.valid = false
		cs.fail = fmt.Sprintf("recomputed %#x != loaded %#x (structural ok=%v)", res, v, ok)
		return
	}
	for i, in := range cs.inputs {
		want := snap[i]
		if cs.liveOK[i] && regs[in.reg] != want {
			cs.liveOK[i] = false
		}
		// A snapshot exists, so every input's node has been checkpointed.
		if cs.histOK[i] && cs.ck[in.node][in.operand] != want {
			cs.histOK[i] = false
		}
		if !cs.liveOK[i] && !cs.histOK[i] {
			cs.valid = false
			n := cs.s.Inputs[i]
			cs.fail = fmt.Sprintf("input %d (node@%d op%d %s) neither live nor Hist-bindable", i, n.Node.PC, n.Operand, n.Reg)
			return
		}
	}
}

// nodeRef names one node of one candidate.
type nodeRef struct{ cand, node int32 }

// watchSite is what the validation replay observes at one watched PC.
type watchSite struct {
	recs  []nodeRef // slice nodes with inputs: checkpoint their operands
	feeds []int32   // candidates this store feeds: snapshot their inputs
	load  int32     // candidate whose load this is, or -1
}

// validate replays the program once more and checks every candidate slice
// empirically. This is the profile-guided step standing in for the paper's
// Pin-based binary generator: a slice enters the binary only if
// recomputation is observed to regenerate v on every dynamic instance, and
// the replay simultaneously classifies each leaf input as live-register or
// Hist-checkpointed (§2.2).
//
// The replay is a classic run on a fork of img over the shared execution
// core, watching only the PCs validation needs (exec.Watch): slice nodes
// with leaf inputs (REC sites), the stores feeding a candidate, and the
// candidate loads. consumers[st] is the set of load PCs whose values the
// store at st produced in the profile; a store feeds the candidates among
// them. If diag is non-nil, rejection reasons are recorded per load PC.
func validate(model *energy.Model, prog *isa.Program, img *mem.Image, candidates []*rslice.Slice, consumers []map[int]bool, diag map[int]string) ([]*rslice.Slice, error) {
	if len(candidates) == 0 {
		return nil, nil
	}

	sites := make([]watchSite, len(prog.Code))
	for pc := range sites {
		sites[pc].load = -1
	}
	cands := make([]*candState, len(candidates))
	for ci, s := range candidates {
		cs := newCandState(s)
		cands[ci] = cs
		sites[s.LoadPC].load = int32(ci)
		// A node with several inputs is listed once per input; checkpointing
		// it twice at one execution is harmless.
		for _, in := range cs.inputs {
			pc := s.Nodes[in.node].PC
			sites[pc].recs = append(sites[pc].recs, nodeRef{cand: int32(ci), node: in.node})
		}
	}
	for st, loads := range consumers {
		for ld := range loads {
			if ci := sites[ld].load; ci >= 0 {
				sites[st].feeds = append(sites[st].feeds, ci)
			}
		}
	}
	var watched []int
	for pc, st := range sites {
		if st.recs != nil || st.feeds != nil || st.load >= 0 {
			watched = append(watched, pc)
		}
	}

	core := cpu.New(model, mem.NewDefaultHierarchy(), img.Fork())
	defer core.Mem.Release()
	m, regs := core.Mem, &core.Regs
	core.Watch = exec.NewWatch(prog, watched, func(pc int, ops [3]uint64) {
		st := &sites[pc]
		for _, r := range st.recs {
			if cs := cands[r.cand]; cs.valid {
				cs.ck[r.node] = ops
				cs.recorded[r.node] = true
			}
		}
		// A misaligned access faults right after this call and fails the
		// whole replay; observe only accesses that will execute.
		addr := ops[0] + uint64(prog.Code[pc].Imm)
		if addr&7 != 0 {
			return
		}
		for _, ci := range st.feeds {
			if cs := cands[ci]; cs.valid {
				cs.record(addr)
			}
		}
		if st.load >= 0 {
			if cs := cands[st.load]; cs.valid {
				cs.load(m, regs, addr, m.Load(addr))
			}
		}
	})
	if err := core.Run(prog); err != nil {
		return nil, fmt.Errorf("compiler: validation run: %w", err)
	}

	var out []*rslice.Slice
	for ci, s := range candidates {
		cs := cands[ci]
		if !cs.valid || !cs.seen {
			if diag != nil {
				reason := cs.fail
				if reason == "" {
					reason = "load never executed during validation"
				}
				diag[s.LoadPC] = reason
			}
			continue
		}
		for i, in := range s.Inputs {
			if cs.liveOK[i] {
				in.Kind = rslice.InputLive
			} else {
				in.Kind = rslice.InputHist
			}
		}
		out = append(out, s)
	}
	return out, nil
}
