package compiler

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/gen"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

var fullSweep = flag.Bool("compiler.fullsweep", false,
	"run the reference-equality sweep over every workload at scales 0.1 and 0.3 (default: 0.1 only)")

// annDiff names the first part of got that differs from want, or returns
// "" when the two binaries are deep-equal.
func annDiff(got, want *Annotated) string {
	switch {
	case !reflect.DeepEqual(got.Prog.Code, want.Prog.Code):
		return "code"
	case len(got.Slices) != len(want.Slices):
		return fmt.Sprintf("%d slices, want %d", len(got.Slices), len(want.Slices))
	}
	for i := range got.Slices {
		if !reflect.DeepEqual(got.Slices[i], want.Slices[i]) {
			return fmt.Sprintf("SliceInfo %d (load @%d)", i, want.Slices[i].LoadPC)
		}
	}
	switch {
	case !reflect.DeepEqual(got.RecSpecs, want.RecSpecs):
		return "RecSpecs"
	case !reflect.DeepEqual(got.PCMap, want.PCMap):
		return "PCMap"
	case !reflect.DeepEqual(got.Stats, want.Stats):
		return fmt.Sprintf("Stats\n got %+v\nwant %+v", got.Stats, want.Stats)
	case !reflect.DeepEqual(got, want):
		return "annotated binary"
	}
	return ""
}

// assertMatchesReference analyses prog once, selects both modes, and
// requires each binary to be deep-equal to the reference pass's output for
// that mode — code, SliceInfo, RecSpecs, PCMap and Stats, including the
// RejectedDetail text — or both passes to fail with the same error.
func assertMatchesReference(t testing.TB, model *energy.Model, prog *isa.Program, prof *profile.Profile, initial *mem.Memory, opts Options) {
	t.Helper()
	img := initial.Clone().Seal()
	defer img.Release()
	a, aerr := Analyze(model, prog, prof, img, opts)
	for _, mode := range []Mode{ModeProbabilistic, ModeOracleAll} {
		ropts := opts
		ropts.Mode = mode
		want, werr := refCompile(model, prog, prof, initial, ropts)
		var got *Annotated
		gerr := aerr
		if aerr == nil {
			got, gerr = a.Select(mode)
		}
		if gerr != nil || werr != nil {
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s %s: error %v, reference %v", prog.Name, mode, gerr, werr)
			}
			continue
		}
		if d := annDiff(got, want); d != "" {
			t.Fatalf("%s %s: differs from the reference pass in %s", prog.Name, mode, d)
		}
	}
	if img.Refs() != 1 {
		t.Fatalf("%s: validation replay leaked %d forks of the image", prog.Name, img.Refs()-1)
	}
}

// TestMatchesReferenceWorkloads holds the analyse-once pass to the
// reference (the hooked, per-mode validation replay it replaced) on every
// workload; -compiler.fullsweep adds scale 0.3.
func TestMatchesReferenceWorkloads(t *testing.T) {
	scales := []float64{0.1}
	if *fullSweep {
		scales = append(scales, 0.3)
	}
	model := energy.Default()
	for _, scale := range scales {
		for _, w := range workloads.All() {
			t.Run(fmt.Sprintf("%s@%.1f", w.Name, scale), func(t *testing.T) {
				prog, initial := w.Build(scale)
				prof, err := profile.Collect(model, prog, initial)
				if err != nil {
					t.Fatalf("profile: %v", err)
				}
				assertMatchesReference(t, model, prog, prof, initial, DefaultOptions())
			})
		}
	}
}

// TestMatchesReferenceGenerated covers 40 generator programs, and the same
// programs under dead-store elimination and tight slice caps.
func TestMatchesReferenceGenerated(t *testing.T) {
	model := energy.Default()
	dse := DefaultOptions()
	dse.EliminateDeadStores = true
	tight := DefaultOptions()
	tight.MaxSliceLen, tight.MaxHeight = 3, 2
	for seed := int64(0); seed < 40; seed++ {
		prog, initial, err := gen.Generate(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof, err := profile.Collect(model, prog, initial)
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		for _, opts := range []Options{DefaultOptions(), dse, tight} {
			assertMatchesReference(t, model, prog, prof, initial, opts)
		}
	}
}
