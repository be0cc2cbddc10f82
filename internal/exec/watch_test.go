package exec_test

import (
	"strings"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// watchedEvent is one watch callback: the pc and its pre-execution operands.
type watchedEvent struct {
	pc  int
	ops [3]uint64
}

// watchPCs picks every third load, store and compute instruction in the
// first half of p: a set that lands inside hot loops, while loops in the
// second half stay unwatched and replay as traces.
func watchPCs(p *isa.Program) []int {
	var pcs []int
	n := 0
	kinds := p.Decoded().Kind
	for pc, k := range kinds[:len(kinds)/2] {
		if k == isa.KindLoad || k == isa.KindStore || k == isa.KindCompute {
			if n%3 == 0 {
				pcs = append(pcs, pc)
			}
			n++
		}
	}
	return pcs
}

// runWatched runs p on a fresh core with the given trace config, watching
// pcs (none when nil) and collecting the callbacks and the store stream.
func runWatched(p *isa.Program, m *mem.Memory, tc trace.Config, pcs []int) (*cpu.Core, []watchedEvent, [][2]uint64, error) {
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), m)
	core.Trace = tc
	var events []watchedEvent
	if pcs != nil {
		core.Watch = exec.NewWatch(p, pcs, func(pc int, ops [3]uint64) {
			events = append(events, watchedEvent{pc, ops})
		})
	}
	var stores [][2]uint64
	core.StoreHook = func(addr, val uint64) { stores = append(stores, [2]uint64{addr, val}) }
	err := core.Run(p)
	return core, events, stores, err
}

// TestWatchParity: a watched run is bit-identical to an unwatched one —
// registers, final pc, memory, energy account and store stream — traced
// and untraced; its callbacks carry exactly the operand values the hooked
// interpreter reports for the same instructions; and no trace it records
// contains a watched PC.
func TestWatchParity(t *testing.T) {
	configs := map[string]trace.Config{
		"untraced": {},
		"traced":   trace.DefaultConfig(),
		"forced":   {Enable: true, Threshold: 1},
	}
	replayed := false
	for _, w := range workloads.Responsive() {
		prog, initial := w.Build(0.01)
		pcs := watchPCs(prog)
		watched := make(map[int]bool, len(pcs))
		for _, pc := range pcs {
			watched[pc] = true
		}

		// The hooked interpreter's operand snapshots at the watched PCs.
		hooked := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), initial.Clone())
		var want []watchedEvent
		hooked.Hook = func(ev *cpu.Event) {
			if watched[ev.PC] {
				want = append(want, watchedEvent{ev.PC, ev.SrcVals})
			}
		}
		if err := hooked.Run(prog); err != nil {
			t.Fatalf("%s: hooked run: %v", w.Name, err)
		}

		for name, tc := range configs {
			plain, _, pStores, pErr := runWatched(prog, initial.Clone(), tc, nil)
			core, events, stores, err := runWatched(prog, initial.Clone(), tc, pcs)
			if pErr != nil || err != nil {
				t.Fatalf("%s/%s: unwatched %v, watched %v", w.Name, name, pErr, err)
			}
			if core.Acct != plain.Acct {
				t.Errorf("%s/%s: energy accounts diverge:\n  watched:   %+v\n  unwatched: %+v", w.Name, name, core.Acct, plain.Acct)
			}
			if core.Regs != plain.Regs || core.PC != plain.PC {
				t.Errorf("%s/%s: registers or final pc diverge", w.Name, name)
			}
			if !core.Mem.Equal(plain.Mem) {
				t.Errorf("%s/%s: memory diverges at words %v", w.Name, name, core.Mem.Diff(plain.Mem, 4))
			}
			if len(stores) != len(pStores) {
				t.Fatalf("%s/%s: store stream length %d != %d", w.Name, name, len(stores), len(pStores))
			}
			for i := range stores {
				if stores[i] != pStores[i] {
					t.Fatalf("%s/%s: store %d diverges: %v != %v", w.Name, name, i, stores[i], pStores[i])
				}
			}
			if len(events) == 0 || len(events) != len(want) {
				t.Fatalf("%s/%s: %d watch callbacks, hooked run retired %d watched instructions", w.Name, name, len(events), len(want))
			}
			for i := range events {
				if events[i] != want[i] {
					t.Fatalf("%s/%s: callback %d = %+v, hooked event %+v", w.Name, name, i, events[i], want[i])
				}
			}
			if e := core.Engine; e != nil {
				replayed = replayed || e.Replays > 0
				for _, tr := range e.Traces {
					if tr == nil {
						continue
					}
					for _, op := range tr.Ops {
						fused := op.Code == trace.CAluGuard || op.Code == trace.CLoadAlu || op.Code == trace.CAluStore
						if watched[int(op.PC)] || (fused && watched[int(op.PC2)]) {
							t.Fatalf("%s/%s: trace at head %d contains watched pc %d/%d", w.Name, name, tr.Head, op.PC, op.PC2)
						}
					}
				}
			}
		}
	}
	if !replayed {
		t.Fatal("no watched run replayed a trace; the traced parity check is vacuous")
	}
}

// TestWatchProgramMismatch: a watch built for another program is refused,
// and a watch PC outside the program panics at construction.
func TestWatchProgramMismatch(t *testing.T) {
	w, err := workloads.Get("is")
	if err != nil {
		t.Fatal(err)
	}
	prog, initial := w.Build(0.02)
	other, _ := workloads.Responsive()[0].Build(0.02)
	core := cpu.New(energy.Default(), mem.NewDefaultHierarchy(), initial.Clone())
	core.Watch = exec.NewWatch(other, nil, func(int, [3]uint64) {})
	if err := core.Run(prog); err == nil || !strings.Contains(err.Error(), "watch built for") {
		t.Fatalf("run with a foreign watch: err %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWatch accepted a pc outside the program")
		}
	}()
	exec.NewWatch(prog, []int{len(prog.Code)}, func(int, [3]uint64) {})
}
