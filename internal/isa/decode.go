package isa

// Kind is the dispatch class of a decoded instruction. The interpreter
// loops switch on Kind instead of re-deriving "is this recomputable / a
// branch / memory?" from the opcode on every dynamic instruction.
type Kind uint8

// Dispatch kinds. KindBad marks opcodes the decoder does not recognise;
// program validation rejects them before execution, so hitting one at
// dispatch time is an internal error. KindWatch is never decoded: an
// executor overlays it on a private copy of Kind to call out before the
// instruction at that PC executes (see exec.Watch).
const (
	KindNop     Kind = iota
	KindCompute      // every Recomputable opcode (ALU, FP, moves, immediates)
	KindLoad
	KindStore
	KindCondBr // BEQ / BNE / BLT / BGE
	KindJmp
	KindHalt
	KindRcmp
	KindRtn
	KindRec
	KindWatch
	KindBad
)

// Decoded is the pre-decoded, struct-of-arrays form of a program. Each
// parallel slice is indexed by PC. Decoding resolves once, at build time,
// everything the hot interpreter loops would otherwise recompute per
// retired instruction: the dispatch kind, the energy-accounting category,
// register indices widened to int (avoiding bounds-check-hostile uint8
// conversions in the loop), and branch targets as ints.
//
// A Decoded is immutable after construction and safe to share across
// goroutines; the harness runs several policies over one *Program
// concurrently.
type Decoded struct {
	Kind []Kind
	Op   []Op
	Cat  []Category
	Dst  []int32
	Src1 []int32
	Src2 []int32
	Imm  []int64
	// Target is the absolute branch/jump target for KindCondBr/KindJmp
	// (from Imm) and the slice entry point for KindRcmp (from
	// Instr.Target), pre-widened to int32.
	Target []int32
	// SliceID / LeafAddr mirror the amnesic annotation fields.
	SliceID  []int32
	LeafAddr []int32
}

// kindOf classifies one opcode.
func kindOf(op Op) Kind {
	switch {
	case op == NOP:
		return KindNop
	case Recomputable(op):
		return KindCompute
	case op == LD:
		return KindLoad
	case op == ST:
		return KindStore
	case op == BEQ || op == BNE || op == BLT || op == BGE:
		return KindCondBr
	case op == JMP:
		return KindJmp
	case op == HALT:
		return KindHalt
	case op == RCMP:
		return KindRcmp
	case op == RTN:
		return KindRtn
	case op == REC:
		return KindRec
	default:
		return KindBad
	}
}

// decode builds the struct-of-arrays form of code.
func decode(code []Instr) *Decoded {
	n := len(code)
	d := &Decoded{
		Kind:     make([]Kind, n),
		Op:       make([]Op, n),
		Cat:      make([]Category, n),
		Dst:      make([]int32, n),
		Src1:     make([]int32, n),
		Src2:     make([]int32, n),
		Imm:      make([]int64, n),
		Target:   make([]int32, n),
		SliceID:  make([]int32, n),
		LeafAddr: make([]int32, n),
	}
	for pc, in := range code {
		k := kindOf(in.Op)
		d.Kind[pc] = k
		d.Op[pc] = in.Op
		d.Cat[pc] = CategoryOf(in.Op)
		d.Dst[pc] = int32(in.Dst)
		d.Src1[pc] = int32(in.Src1)
		d.Src2[pc] = int32(in.Src2)
		d.Imm[pc] = in.Imm
		switch k {
		case KindCondBr, KindJmp:
			d.Target[pc] = int32(in.Imm)
		case KindRcmp:
			d.Target[pc] = in.Target
		}
		d.SliceID[pc] = in.SliceID
		d.LeafAddr[pc] = in.LeafAddr
	}
	return d
}

// Len returns the instruction count.
func (d *Decoded) Len() int { return len(d.Kind) }
