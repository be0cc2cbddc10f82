package exec

import (
	"fmt"

	"github.com/amnesiac-sim/amnesiac/internal/isa"
)

// Watch makes Run call out before selected instructions execute. The
// compiler's validation replay observes its REC sites, feeder stores and
// candidate loads this way: only those PCs pay for the call, and loops that
// avoid them still replay as traces.
//
// A Watch overlays isa.KindWatch on a private copy of the program's decoded
// kinds. A watched run keeps a watch bit in the loop's existing slow-path
// word, so each instruction checks the copy at the loop top; an unwatched
// run keeps the same loop with no extra state. At a watched PC Run calls
// the callback with the pre-execution operand values (Src1, Src2 and the
// old Dst, the FMA accumulator input), then executes the instruction as
// usual. The callback may read registers and memory but must not change
// them. The trace recorder checks the same copy and treats KindWatch as
// unrecordable: a recording that reaches a watched PC tombstones its head,
// so no trace ever contains a watched PC and every watched instruction is
// interpreted and observed.
type Watch struct {
	kinds []isa.Kind
	fn    func(pc int, ops [3]uint64)
}

// NewWatch builds a watch over p that calls fn before each execution of an
// instruction at one of pcs. It panics on a PC outside p.
func NewWatch(p *isa.Program, pcs []int, fn func(pc int, ops [3]uint64)) *Watch {
	kinds := append([]isa.Kind(nil), p.Decoded().Kind...)
	for _, pc := range pcs {
		if uint(pc) >= uint(len(kinds)) {
			panic(fmt.Sprintf("exec: watch pc %d outside %q (%d instrs)", pc, p.Name, len(kinds)))
		}
		kinds[pc] = isa.KindWatch
	}
	return &Watch{kinds: kinds, fn: fn}
}
