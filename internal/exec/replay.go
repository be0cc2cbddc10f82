package exec

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// replayShared is the loop-invariant state replayTrace needs: model pointers,
// precomputed charge constants, and the error-text inputs. Run builds one per
// execution and passes it by pointer so the hot arguments stay scalar.
type replayShared struct {
	ct        *ChargeTable
	l1        *mem.Cache
	hier      *mem.Hierarchy
	memory    *mem.Memory
	regs      *[isa.NumRegs]uint64
	byCat     *[isa.NumCategories]uint64
	nopSkips  *uint64
	storeHook func(addr, val uint64)
	code      []isa.Instr
	pfx       string
	max       uint64

	// Trace-linking state (counts/traces alias the engine's arrays): a
	// failing guard chains directly into the side-exit target's trace when
	// one exists, and bumps the target's hotness counter when none does, so
	// hot exit paths become lateral traces and replay rarely returns to the
	// interpreter.
	eng       *trace.Engine
	counts    []uint32
	traces    []*trace.Trace
	threshold uint32
	maxOps    int

	// Aux-replay state (amnesic runs): the live handler CRec/CRcmp ops call
	// back into, the account they charge through (the flush/reload target),
	// and the sigger that makes aux kinds recordable. All cold-path only.
	aux    Aux
	acct   *energy.Account
	sigger trace.AuxSigger

	// Mutable engine state the interpreter loop deliberately keeps OUT of
	// its locals (each extra value live across the dispatch switch costs
	// spills in the hot cases — see Run): curTr is the trace pending replay
	// while slow has slowReplay set, recHead the head being recorded while
	// it has slowRecord set, recPath its superblock buffer.
	curTr   *trace.Trace
	recHead int
	recPath []int32
	// recKinds is the kind table the recorder checks recordability
	// against: the decoded kinds, or a Watch's copy with its PCs marked.
	recKinds []isa.Kind

	fetchE, fetchT, wbL2, wbMem, cycle float64
	charge                             bool
}

// acctState carries the hot accumulators across the Run ⇄ replayTrace
// boundary. The values move verbatim — no additions happen at the boundary —
// so the floating-point totals stay bit-identical to uninterrupted
// interpretation.
type acctState struct {
	energyNJ, timeNS, loadNJ, storeNJ, nonMemNJ, fetchNJ float64
	instrs, loads, stores                                uint64
}

// memWin is the two-entry flat-window data micro-TLB (see Run), threaded
// through replay because stores may grow memory and re-anchor the windows.
// arenaWN/w2WN are the writable-prefix lengths bounding the store fast
// path — mem's copy-on-write barrier (see Run).
type memWin struct {
	arenaBase uint64
	arena     []uint64
	arenaWN   uint64
	w2base    uint64
	w2        []uint64
	w2WN      uint64
}

// replayTrace executes tr from its head until a guard side-exits, the
// instruction budget might be exceeded by the next iteration, or a replayed
// memory access faults. It exists as a separate function for register
// allocation, not modularity: inside Run the replay loop shares the frame
// with the whole interpreter switch, and the allocator spills the energy
// accumulators around the dispatch jump on every op. In its own frame they
// stay in registers.
//
// The returned pc is where interpretation must resume (the side-exit
// continuation, the head on budget exhaustion, or the faulting original pc
// with a non-nil error). Category counters are batched in a local array and
// flushed through sh.byCat on return; integer addition is exact, so batching
// cannot change the totals.
func replayTrace(sh *replayShared, tr *trace.Trace, ac acctState, mw memWin) (acctState, memWin, int, error) {
	ct, l1, hier, memory := sh.ct, sh.l1, sh.hier, sh.memory
	regs, storeHook, nopSkips := sh.regs, sh.storeHook, sh.nopSkips
	fetchE, fetchT, wbL2, wbMem, cycle := sh.fetchE, sh.fetchT, sh.wbL2, sh.wbMem, sh.cycle
	charge, max := sh.charge, sh.max

	energyNJ, timeNS := ac.energyNJ, ac.timeNS
	loadNJ, storeNJ, nonMemNJ, fetchNJ := ac.loadNJ, ac.storeNJ, ac.nonMemNJ, ac.fetchNJ
	// Deliberately NOT destructured: the memory windows (mw) live in their
	// stack slots and loads/stores counters fold into catCnt. Keeping them
	// out of the allocator's live set is what lets the six energy
	// accumulators stay in XMM registers across the dispatch below.
	instrs := ac.instrs

	// catCnt is sized to a power of two so op.Cat&15 elides the bounds
	// check; categories are < isa.NumCategories (≤ 16) by construction.
	var catCnt [16]uint64
	var rerr error
	pc := int(tr.Head)
	trOps := tr.Ops
	need := tr.NInstr
chain:
	for instrs+need <= max {
		for i := range trOps {
			op := &trOps[i]
			if charge {
				energyNJ += fetchE
				fetchNJ += fetchE
				timeNS += fetchT
			}
			switch op.Code {
			case trace.CAdd:
				v := regs[op.Src1&31] + regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CAddi:
				v := regs[op.Src1&31] + uint64(op.Imm)
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CLi:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = uint64(op.Imm)
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CMov:
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = regs[op.Src1&31]
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CSub:
				v := regs[op.Src1&31] - regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CMul:
				v := regs[op.Src1&31] * regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CAnd:
				v := regs[op.Src1&31] & regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.COr:
				v := regs[op.Src1&31] | regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CXor:
				v := regs[op.Src1&31] ^ regs[op.Src2&31]
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CShl:
				v := regs[op.Src1&31] << (regs[op.Src2&31] & 63)
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CShr:
				v := regs[op.Src1&31] >> (regs[op.Src2&31] & 63)
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CSlt:
				var v uint64
				if int64(regs[op.Src1&31]) < int64(regs[op.Src2&31]) {
					v = 1
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CSeq:
				var v uint64
				if regs[op.Src1&31] == regs[op.Src2&31] {
					v = 1
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CAluGen:
				v := isa.EvalComputeOp(op.AOp, op.Imm, regs[op.Src1&31], regs[op.Src2&31], regs[op.Dst&31])
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
			case trace.CLoad:
				addr := regs[op.Src1&31] + uint64(op.Imm)
				if addr&7 != 0 {
					pc = int(op.PC)
					rerr = fmt.Errorf("%s: pc %d (%s): load: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				var level energy.Level
				if l1.ProbeHit(addr, false) {
					hier.Serviced[energy.L1]++
					level = energy.L1
				} else {
					res := hier.AccessMiss(addr, false)
					for k := 0; k < res.WritebackL2; k++ {
						energyNJ += wbL2
						storeNJ += wbL2
					}
					for k := 0; k < res.WritebackMem; k++ {
						energyNJ += wbMem
						storeNJ += wbMem
					}
					level = res.Level
				}
				e := ct.LoadTot[level]
				energyNJ += e
				loadNJ += e
				timeNS += ct.LoadLat[level]
				instrs++
				catCnt[isa.CatLoad]++
				var v uint64
				if off := addr>>3 - mw.arenaBase; off < uint64(len(mw.arena)) {
					v = mw.arena[off]
				} else if off := addr>>3 - mw.w2base; off < uint64(len(mw.w2)) {
					v = mw.w2[off]
				} else {
					v = memory.Load(addr)
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				if dst := op.Dst & 31; dst != 0 {
					regs[dst] = v
				}
			case trace.CStore:
				addr := regs[op.Src1&31] + uint64(op.Imm)
				if addr&7 != 0 {
					pc = int(op.PC)
					rerr = fmt.Errorf("%s: pc %d (%s): store: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				var level energy.Level
				if l1.ProbeHit(addr, true) {
					hier.Serviced[energy.L1]++
					level = energy.L1
				} else {
					res := hier.AccessMiss(addr, true)
					for k := 0; k < res.WritebackL2; k++ {
						energyNJ += wbL2
						storeNJ += wbL2
					}
					for k := 0; k < res.WritebackMem; k++ {
						energyNJ += wbMem
						storeNJ += wbMem
					}
					level = res.Level
				}
				e := ct.StoreTot[level]
				energyNJ += e
				storeNJ += e
				timeNS += ct.StoreLat
				instrs++
				catCnt[isa.CatStore]++
				v := regs[op.Src2&31]
				if off := addr>>3 - mw.arenaBase; off < mw.arenaWN {
					mw.arena[off] = v
				} else if off := addr>>3 - mw.w2base; off < mw.w2WN {
					mw.w2[off] = v
				} else {
					memory.Store(addr, v)
					mw.arenaBase, mw.arena, mw.arenaWN = memory.ArenaViewW()
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				if storeHook != nil {
					storeHook(addr, v)
				}
			case trace.CNop:
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[isa.CatNop]++
				if op.Elim {
					*nopSkips++
				}
			case trace.CBrCharge:
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[isa.CatBranch]++
			case trace.CGuard:
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[isa.CatBranch]++
				if isa.BranchTaken(op.BOp, regs[op.BSrc1&31], regs[op.BSrc2&31]) != op.Taken {
					// Cold path: go through sh rather than locals so the
					// link state is not live across the hot dispatch above
					// (keeping register pressure low enough for the energy
					// accumulators to stay in XMM registers).
					pc = int(op.ExitPC)
					if nt := sh.traces[pc]; nt != nil {
						if nt.Ops == nil {
							break chain // blacklisted head: interpret
						}
						// Link: fall through into the exit target's trace
						// without returning to the interpreter.
						sh.eng.Replays++
						trOps = nt.Ops
						need = nt.NInstr
						continue chain
					}
					sh.counts[pc]++
					break chain
				}
			case trace.CAluGuard:
				// ALU half.
				a, b := regs[op.Src1&31], regs[op.Src2&31]
				var v uint64
				switch op.AOp {
				case isa.ADD:
					v = a + b
				case isa.ADDI:
					v = a + uint64(op.Imm)
				case isa.LI:
					v = uint64(op.Imm)
				case isa.MOV:
					v = a
				case isa.SUB:
					v = a - b
				case isa.MUL:
					v = a * b
				case isa.SLT:
					if int64(a) < int64(b) {
						v = 1
					}
				case isa.SEQ:
					if a == b {
						v = 1
					}
				default:
					v = isa.EvalComputeOp(op.AOp, op.Imm, a, b, regs[op.Dst&31])
				}
				regs[op.Dst&31] = v // fusePair guarantees Dst != 0
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs += uint64(op.NBat)
				catCnt[op.Cat&15]++
				// Guard half (second original instruction).
				if charge {
					energyNJ += fetchE
					fetchNJ += fetchE
					timeNS += fetchT
				}
				// The guard's retire count is folded into this op's NBat
				// (weight 2: ALU + branch) applied at the ALU half above.
				e = op.ENJ2
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				catCnt[isa.CatBranch]++
				ga, gb := regs[op.BSrc1&31], regs[op.BSrc2&31]
				if op.Fwd&1 != 0 {
					ga = v
				}
				if op.Fwd&2 != 0 {
					gb = v
				}
				if isa.BranchTaken(op.BOp, ga, gb) != op.Taken {
					pc = int(op.ExitPC)
					if nt := sh.traces[pc]; nt != nil {
						if nt.Ops == nil {
							break chain
						}
						sh.eng.Replays++
						trOps = nt.Ops
						need = nt.NInstr
						continue chain
					}
					sh.counts[pc]++
					break chain
				}
			case trace.CLoadAlu:
				// Load half.
				addr := regs[op.Src1&31] + uint64(op.Imm)
				if addr&7 != 0 {
					pc = int(op.PC)
					rerr = fmt.Errorf("%s: pc %d (%s): load: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				var level energy.Level
				if l1.ProbeHit(addr, false) {
					hier.Serviced[energy.L1]++
					level = energy.L1
				} else {
					res := hier.AccessMiss(addr, false)
					for k := 0; k < res.WritebackL2; k++ {
						energyNJ += wbL2
						storeNJ += wbL2
					}
					for k := 0; k < res.WritebackMem; k++ {
						energyNJ += wbMem
						storeNJ += wbMem
					}
					level = res.Level
				}
				e := ct.LoadTot[level]
				energyNJ += e
				loadNJ += e
				timeNS += ct.LoadLat[level]
				instrs++
				catCnt[isa.CatLoad]++
				var v uint64
				if off := addr>>3 - mw.arenaBase; off < uint64(len(mw.arena)) {
					v = mw.arena[off]
				} else if off := addr>>3 - mw.w2base; off < uint64(len(mw.w2)) {
					v = mw.w2[off]
				} else {
					v = memory.Load(addr)
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				regs[op.Dst&31] = v // fusePair guarantees Dst != 0
				// ALU half (second original instruction).
				if charge {
					energyNJ += fetchE
					fetchNJ += fetchE
					timeNS += fetchT
				}
				a, b := regs[op.BSrc1&31], regs[op.BSrc2&31]
				if op.Fwd&1 != 0 {
					a = v
				}
				if op.Fwd&2 != 0 {
					b = v
				}
				var r uint64
				switch op.AOp {
				case isa.ADD:
					r = a + b
				case isa.ADDI:
					r = a + uint64(op.Imm2)
				case isa.MOV:
					r = a
				case isa.SUB:
					r = a - b
				case isa.MUL:
					r = a * b
				case isa.AND:
					r = a & b
				case isa.OR:
					r = a | b
				case isa.XOR:
					r = a ^ b
				case isa.SLT:
					if int64(a) < int64(b) {
						r = 1
					}
				case isa.SEQ:
					if a == b {
						r = 1
					}
				default:
					r = isa.EvalComputeOp(op.AOp, op.Imm2, a, b, regs[op.Dst2&31])
				}
				if dst := op.Dst2 & 31; dst != 0 {
					regs[dst] = r
				}
				e = op.ENJ2
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs++
				catCnt[op.Cat2&15]++
			case trace.CAluStore:
				// ALU half.
				a, b := regs[op.Src1&31], regs[op.Src2&31]
				var v uint64
				switch op.AOp {
				case isa.ADD:
					v = a + b
				case isa.ADDI:
					v = a + uint64(op.Imm)
				case isa.LI:
					v = uint64(op.Imm)
				case isa.MOV:
					v = a
				case isa.SUB:
					v = a - b
				case isa.MUL:
					v = a * b
				case isa.AND:
					v = a & b
				case isa.OR:
					v = a | b
				case isa.XOR:
					v = a ^ b
				case isa.SLT:
					if int64(a) < int64(b) {
						v = 1
					}
				case isa.SEQ:
					if a == b {
						v = 1
					}
				default:
					v = isa.EvalComputeOp(op.AOp, op.Imm, a, b, regs[op.Dst&31])
				}
				regs[op.Dst&31] = v // fusePair guarantees Dst != 0
				e := op.ENJ
				energyNJ += e
				nonMemNJ += e
				timeNS += cycle
				instrs++
				catCnt[op.Cat&15]++
				// Store half (second original instruction).
				if charge {
					energyNJ += fetchE
					fetchNJ += fetchE
					timeNS += fetchT
				}
				base := regs[op.BSrc1&31]
				if op.Fwd&1 != 0 {
					base = v
				}
				val := regs[op.BSrc2&31]
				if op.Fwd&2 != 0 {
					val = v
				}
				addr := base + uint64(op.Imm2)
				if addr&7 != 0 {
					pc = int(op.PC2)
					rerr = fmt.Errorf("%s: pc %d (%s): store: %w", sh.pfx, pc, sh.code[pc], mem.CheckAligned(addr))
					break chain
				}
				var level energy.Level
				if l1.ProbeHit(addr, true) {
					hier.Serviced[energy.L1]++
					level = energy.L1
				} else {
					res := hier.AccessMiss(addr, true)
					for k := 0; k < res.WritebackL2; k++ {
						energyNJ += wbL2
						storeNJ += wbL2
					}
					for k := 0; k < res.WritebackMem; k++ {
						energyNJ += wbMem
						storeNJ += wbMem
					}
					level = res.Level
				}
				e = ct.StoreTot[level]
				energyNJ += e
				storeNJ += e
				timeNS += ct.StoreLat
				instrs++
				catCnt[isa.CatStore]++
				if off := addr>>3 - mw.arenaBase; off < mw.arenaWN {
					mw.arena[off] = val
				} else if off := addr>>3 - mw.w2base; off < mw.w2WN {
					mw.w2[off] = val
				} else {
					memory.Store(addr, val)
					mw.arenaBase, mw.arena, mw.arenaWN = memory.ArenaViewW()
					mw.w2base, mw.w2, mw.w2WN, _ = memory.WindowForW(addr)
				}
				if storeHook != nil {
					storeHook(addr, val)
				}
			case trace.CRec, trace.CRcmp:
				// Cold path: the live amnesic handler executes the op exactly
				// as the interpreter would — slice traversal, policy decision,
				// Hist/SFile/IBuff state, and accounting all take the same
				// code path. The handler charges through the account directly,
				// so the order-sensitive float accumulators and the
				// budget-visible Instrs round-trip by value; the batched
				// integer category counts stay local (they are deltas the
				// exit below folds additively, and integer addition commutes
				// with the handler's own increments).
				acct := sh.acct
				acct.EnergyNJ, acct.TimeNS = energyNJ, timeNS
				acct.LoadNJ, acct.StoreNJ, acct.NonMemNJ, acct.FetchNJ = loadNJ, storeNJ, nonMemNJ, fetchNJ
				acct.Instrs = instrs
				var aerr error
				if op.Code == trace.CRec {
					sh.aux.ExecRec(int(op.PC))
				} else {
					aerr = sh.aux.ExecRcmp(int(op.PC))
				}
				energyNJ, timeNS = acct.EnergyNJ, acct.TimeNS
				loadNJ, storeNJ, nonMemNJ, fetchNJ = acct.LoadNJ, acct.StoreNJ, acct.NonMemNJ, acct.FetchNJ
				instrs = acct.Instrs
				if aerr != nil {
					// The outcome guard: an erroring RCMP side-exits with the
					// interpreter's wrapped error at the faulting pc.
					pc = int(op.PC)
					rerr = aerr
					break chain
				}
				// An RCMP that fired recomputation retired slice-body
				// instructions beyond this iteration's NInstr, so the
				// chain-top budget check no longer covers the rest of the
				// iteration. Conservatively hand the tail to the interpreter,
				// which applies the exact per-instruction budget rule; when
				// the aux op closed the iteration, pc already holds the
				// current trace head.
				if instrs+need > max {
					if i+1 < len(trOps) {
						pc = int(trOps[i+1].PC)
					}
					break chain
				}
			}
		}
	}

	for i := range sh.byCat {
		sh.byCat[i] += catCnt[i]
	}
	ac = acctState{
		energyNJ: energyNJ, timeNS: timeNS,
		loadNJ: loadNJ, storeNJ: storeNJ, nonMemNJ: nonMemNJ, fetchNJ: fetchNJ,
		instrs: instrs,
		// Every replayed load/store bumps exactly one catCnt slot, so the
		// dedicated counters fold into the batched category counts.
		loads:  ac.loads + catCnt[isa.CatLoad],
		stores: ac.stores + catCnt[isa.CatStore],
	}
	return ac, mw, pc, rerr
}

// buildTrace compiles a recorded superblock and stamps each op with its
// precomputed non-memory energy charges so replay skips the per-op category
// table lookup. The values come from the same ChargeTable the interpreter
// accumulates from, so the totals stay bit-identical.
func buildTrace(d *isa.Decoded, path []int32, elim []bool, ct *ChargeTable, sig trace.AuxSigger) *trace.Trace {
	nt := trace.Build(d, path, elim, sig)
	for i := range nt.Ops {
		op := &nt.Ops[i]
		switch op.Code {
		case trace.CLoad, trace.CStore:
			// Charge depends on the serviced level at runtime.
		case trace.CRec, trace.CRcmp:
			// The live handler does all the charging.
		case trace.CNop:
			op.ENJ = ct.EPI[isa.CatNop]
		case trace.CBrCharge, trace.CGuard:
			op.ENJ = ct.EPI[isa.CatBranch]
		case trace.CAluGuard:
			op.ENJ = ct.EPI[op.Cat]
			op.ENJ2 = ct.EPI[isa.CatBranch]
		case trace.CLoadAlu:
			op.ENJ2 = ct.EPI[op.Cat2]
		default: // single ALU ops and CAluStore's ALU half
			op.ENJ = ct.EPI[op.Cat]
		}
	}
	return nt
}
