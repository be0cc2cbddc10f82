package compiler

import (
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
)

// FuzzCompilerValidate profiles and compiles a fuzzed generator seed in
// both modes, asserting the pass never errors on a valid terminating
// program, that its output is structurally sound — the annotated binary
// validates, and every emitted RCMP names a resolvable slice — and that
// both binaries are deep-equal to the reference pass's.
func FuzzCompilerValidate(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(7))
	f.Add(int64(-12345))
	model := energy.Default()
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		for _, mode := range []Mode{ModeProbabilistic, ModeOracleAll} {
			opts := DefaultOptions()
			opts.Mode = mode
			ann, err := Compile(model, prog, prof, initial, opts)
			if err != nil {
				t.Fatalf("seed %d: %s compile: %v", seed, mode, err)
			}
			if err := ann.Prog.Validate(); err != nil {
				t.Fatalf("seed %d: %s binary invalid: %v", seed, mode, err)
			}
			if len(ann.Prog.Code) < len(prog.Code) {
				t.Fatalf("seed %d: %s binary shrank from %d to %d instructions",
					seed, mode, len(prog.Code), len(ann.Prog.Code))
			}
			for pc, in := range ann.Prog.Code {
				if in.Op == isa.RCMP && ann.SliceByID(in.SliceID) == nil {
					t.Fatalf("seed %d: %s: RCMP at pc %d names unknown slice %d",
						seed, mode, pc, in.SliceID)
				}
			}
		}
		assertMatchesReference(t, model, prog, prof, initial, DefaultOptions())
	})
}
