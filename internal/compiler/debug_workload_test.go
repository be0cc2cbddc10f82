package compiler

import (
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/rslice"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

func TestDebugWorkloadSlices(t *testing.T) {
	if testing.Short() {
		t.Skip("debug dump")
	}
	for _, name := range []string{"fs", "rt", "cg", "sr"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		model := energy.Default()
		prog, initial := w.Build(0.2)
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		b := &builder{model: model, prog: prog, prof: prof, opts: DefaultOptions()}
		img := initial.Seal()
		for _, pc := range prof.SortedLoadPCs() {
			li := prof.Loads[pc]
			t.Logf("%s: load @%d %s count=%d levels=%v eld=%.2f",
				name, pc, prog.Code[pc], li.Count, li.ByLevel, li.ExpectedLoadEnergy(model))
			sl, reason := b.build(pc)
			if sl == nil {
				t.Logf("  no slice: reason=%d", reason)
				continue
			}
			t.Logf("  slice:\n%s  cost=%.2f", sl.String(), b.sliceCost(sl))
			diag := map[int]string{}
			valid, err := validate(model, prog, img, []*rslice.Slice{sl}, prof.StoresConsumedBy, diag)
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			t.Logf("  validated=%d diag=%v", len(valid), diag)
		}
	}
}
