package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// Scales of the two workload families, and the break-even sweep bound the
// daemon uses by default.
const (
	harnessScale  = 0.3
	serveScale    = 0.1
	breakEvenMaxR = 200
)

// pinnedJSON holds every program's simulated results at the seed commit.
// Simulated statistics are deterministic, so a change that only speeds up
// the simulator must leave all of them identical; regenerate with
// --write-pins only for an intended change of the model's outputs.
//
//go:embed pins.json
var pinnedJSON []byte

// harnessPin pins one program at harnessScale: digests of the suite result
// and the checkpoint rows, and the exact break-even factor.
type harnessPin struct {
	Suite      string  `json:"suite"`
	BreakEven  float64 `json:"break_even"`
	Checkpoint string  `json:"checkpoint"`
}

// pinSet is pins.json. Serve holds each program's report row at serveScale
// with all five policies, compared field by field against daemon reports.
type pinSet struct {
	Harness map[string]harnessPin            `json:"harness"`
	Serve   map[string]server.WorkloadReport `json:"serve"`
}

func loadPins() (*pinSet, error) {
	var ps pinSet
	if err := json.Unmarshal(pinnedJSON, &ps); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	for _, w := range workloads.Responsive() {
		if _, ok := ps.Harness[w.Name]; !ok {
			return nil, fmt.Errorf("pins.json: no harness pin for %s", w.Name)
		}
		if _, ok := ps.Serve[w.Name]; !ok {
			return nil, fmt.Errorf("pins.json: no serve pin for %s", w.Name)
		}
	}
	return &ps, nil
}

func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// suiteDigest covers the classic account, both binaries' slice counts and
// compile stats, and every policy's account, stats and Verified flag.
func suiteDigest(r *harness.BenchResult) string {
	parts := []any{r.Program, r.Classic.Acct, r.Classic.Serviced, r.Classic.Regs,
		len(r.Ann.Slices), r.Ann.Stats, len(r.OracleAnn.Slices), r.OracleAnn.Stats}
	for _, label := range harness.PolicyLabels {
		run := r.Runs[label]
		if run == nil {
			return "missing policy " + label
		}
		parts = append(parts, run.Label, run.Acct, run.Stat, run.Verified, run.Swapped, run.SwappedCount)
	}
	return digest(parts...)
}

func checkpointDigest(rows []*harness.CheckpointResult) string {
	parts := make([]any, len(rows))
	for i, r := range rows {
		parts[i] = *r
	}
	return digest(parts...)
}

// checkSuite compares a harness result with its pin.
func (ps *pinSet) checkSuite(r *harness.BenchResult) error {
	for _, label := range harness.PolicyLabels {
		if run := r.Runs[label]; run == nil || !run.Verified {
			return fmt.Errorf("%s: policy %s not verified", r.Workload.Name, label)
		}
	}
	if got, want := suiteDigest(r), ps.Harness[r.Workload.Name].Suite; got != want {
		return fmt.Errorf("%s: suite digest %s, pinned %s", r.Workload.Name, got, want)
	}
	return nil
}

func (ps *pinSet) checkBreakEven(name string, factor float64) error {
	if want := ps.Harness[name].BreakEven; factor != want {
		return fmt.Errorf("%s: break-even factor %v, pinned %v", name, factor, want)
	}
	return nil
}

func (ps *pinSet) checkCheckpoint(name string, rows []*harness.CheckpointResult) error {
	for _, r := range rows {
		if !r.Verified {
			return fmt.Errorf("%s: checkpoint %s restart not verified", name, r.Policy)
		}
	}
	if got, want := checkpointDigest(rows), ps.Harness[name].Checkpoint; got != want {
		return fmt.Errorf("%s: checkpoint digest %s, pinned %s", name, got, want)
	}
	return nil
}

// checkServeRow compares one daemon report row with the pinned row: every
// classic field and every policy row the job asked for.
func (ps *pinSet) checkServeRow(got server.WorkloadReport, policies []string) error {
	want, ok := ps.Serve[got.Name]
	if !ok {
		return fmt.Errorf("no pin for program %q", got.Name)
	}
	if got.Program != want.Program || got.Slices != want.Slices || got.Classic != want.Classic {
		return fmt.Errorf("%s: classic row or slice count differs from pin", got.Name)
	}
	if len(got.Policies) != len(policies) {
		return fmt.Errorf("%s: %d policy rows, asked for %d", got.Name, len(got.Policies), len(policies))
	}
	for i, row := range got.Policies {
		if row.Label != policies[i] {
			return fmt.Errorf("%s: policy row %d is %s, want %s", got.Name, i, row.Label, policies[i])
		}
		if !row.Verified {
			return fmt.Errorf("%s: policy %s not verified", got.Name, row.Label)
		}
		found := false
		for _, p := range want.Policies {
			if p.Label == row.Label {
				found = p == row
			}
		}
		if !found {
			return fmt.Errorf("%s: policy %s row differs from pin", got.Name, row.Label)
		}
	}
	return nil
}

// serveRow renders a harness result the way the daemon's suite report
// does (internal/server report.go), so pins and daemon rows compare.
func serveRow(r *harness.BenchResult) server.WorkloadReport {
	wr := server.WorkloadReport{
		Name: r.Workload.Name, Program: r.Program, Slices: len(r.Ann.Slices),
		Classic: server.ClassicReport{
			EnergyNJ: r.Classic.Acct.EnergyNJ, TimeNS: r.Classic.Acct.TimeNS,
			EDP: r.Classic.Acct.EDP(), Instrs: r.Classic.Acct.Instrs,
			Loads: r.Classic.Acct.Loads, Stores: r.Classic.Acct.Stores,
		},
	}
	for _, label := range harness.PolicyLabels {
		run := r.Runs[label]
		wr.Policies = append(wr.Policies, server.PolicyReport{
			Label: run.Label, EnergyNJ: run.Acct.EnergyNJ, TimeNS: run.Acct.TimeNS,
			EDPGainPct: run.EDPGain, EnergyGainPct: run.EnergyGain, TimeGainPct: run.TimeGain,
			RcmpFired: run.Stat.RcmpRecomputed, RcmpTotal: run.Stat.RcmpTotal,
			SwappedLoads: run.SwappedCount, Verified: run.Verified,
		})
	}
	return wr
}

// regeneratePins recomputes every pin with the untraced harness entry
// points and writes pins.json.
func regeneratePins(path string) error {
	ps := pinSet{Harness: map[string]harnessPin{}, Serve: map[string]server.WorkloadReport{}}
	for _, w := range workloads.Responsive() {
		cfg := harnessConfig(harness.NewArtifactCache(), 0)
		res, err := harness.Run(cfg, w)
		if err != nil {
			return err
		}
		be, err := harness.BreakEven(cfg, w, breakEvenMaxR)
		if err != nil {
			return err
		}
		rows, err := harness.RunCheckpoint(cfg, w, 0)
		if err != nil {
			return err
		}
		ps.Harness[w.Name] = harnessPin{Suite: suiteDigest(res), BreakEven: be, Checkpoint: checkpointDigest(rows)}

		scfg := harnessConfig(harness.NewArtifactCache(), 0)
		scfg.Scale = serveScale
		sres, err := harness.Run(scfg, w)
		if err != nil {
			return err
		}
		ps.Serve[w.Name] = serveRow(sres)
		fmt.Fprintf(os.Stderr, "pinned %s\n", w.Name)
	}
	data, err := json.MarshalIndent(&ps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
