package main

import (
	"fmt"
	"sync"

	"github.com/amnesiac-sim/amnesiac/internal/amnesic"
	"github.com/amnesiac-sim/amnesiac/internal/ckpt"
	"github.com/amnesiac-sim/amnesiac/internal/compiler"
	"github.com/amnesiac-sim/amnesiac/internal/cpu"
	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
	"github.com/amnesiac-sim/amnesiac/internal/policy"
	"github.com/amnesiac-sim/amnesiac/internal/profile"
	"github.com/amnesiac-sim/amnesiac/internal/stats"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// tracedLayers composes an evaluation from the layers' public functions,
// the same calls the harness makes internally, with a span around each.
// Spans and counters are recorded from this file only: the program itself
// carries no tracing.
type tracedLayers struct {
	tr      *tracer
	workers int
	mu      sync.Mutex // guards layers during the parallel policy runs
	layers  harnessLayers
}

func newTracedLayers(workers int) *tracedLayers {
	return &tracedLayers{tr: newTracer(), workers: workers}
}

// eval is the traced twin of untracedEval. The cold path rebuilds the
// artifacts layer by layer; the warm path reads them from cfg.Cache.
func (t *tracedLayers) eval(op int, cfg harness.Config, w *workloads.Workload, warm bool, sim *simCounts) (*evalResult, error) {
	root := t.tr.begin(op, -1, "eval/"+w.Name)
	defer t.tr.end(root)
	var art *harness.Artifacts
	var err error
	if warm {
		art, err = cfg.Cache.Get(cfg, w)
	} else {
		art, err = t.prepare(op, root, cfg, w)
	}
	if err != nil {
		return nil, err
	}
	runs, err := t.policies(op, root, cfg, art, sim)
	if err != nil {
		return nil, err
	}
	res := &harness.BenchResult{
		Workload: w, Program: art.Prog.Name, Classic: art.Classic, Profile: art.Profile,
		Ann: art.Ann, OracleAnn: art.OracleAnn, Runs: runs,
	}
	e := &evalResult{suite: res, warm: warm}
	t.tr.do(op, root, "harness.report", func() { e.report = renderReport(res) })
	if !warm {
		return e, nil
	}
	t.tr.do(op, root, "harness.breakeven", func() { e.breakEven, err = harness.BreakEven(cfg, w, breakEvenMaxR) })
	if err != nil {
		return nil, err
	}
	if e.ckpt, err = t.checkpoint(op, root, cfg, w, art); err != nil {
		return nil, err
	}
	return e, nil
}

// allocDuring returns the bytes allocated while f ran. The calls it wraps
// run alone, so the process-wide counter is theirs.
func allocDuring(f func()) uint64 {
	before := totalAlloc()
	f()
	return totalAlloc() - before
}

// prepare mirrors the harness prepare stage: build, profile, compile the
// probabilistic and the oracle binaries, seal the image, and run the
// classic baseline on a fork.
func (t *tracedLayers) prepare(op, root int, cfg harness.Config, w *workloads.Workload) (*harness.Artifacts, error) {
	var prog *isa.Program
	var initial *mem.Memory
	t.tr.do(op, root, "workloads.build", func() { prog, initial = w.Build(cfg.Scale) })

	var prof *profile.Profile
	var err error
	var ann, oracleAnn *compiler.Annotated
	profAlloc := allocDuring(func() {
		t.tr.do(op, root, "profile.collect", func() { prof, err = profile.Collect(cfg.Model, prog, initial) })
	})
	if err != nil {
		return nil, err
	}
	compAlloc := allocDuring(func() {
		t.tr.do(op, root, "compiler.compile", func() { ann, err = compiler.Compile(cfg.Model, prog, prof, initial, cfg.Opts) })
	})
	if err != nil {
		return nil, err
	}
	oracleOpts := cfg.Opts
	oracleOpts.Mode = compiler.ModeOracleAll
	compAlloc += allocDuring(func() {
		t.tr.do(op, root, "compiler.compile_oracle", func() {
			oracleAnn, err = compiler.Compile(cfg.Model, prog, prof, initial, oracleOpts)
		})
	})
	if err != nil {
		return nil, err
	}

	var img *mem.Image
	t.tr.do(op, root, "mem.seal", func() { img = initial.Seal() })
	var cm *mem.Memory
	t.tr.do(op, root, "mem.fork", func() { cm = img.Fork() })
	var classic *cpu.Result
	t.tr.do(op, root, "cpu.run", func() { classic, err = cpu.RunProgramLimit(cfg.Model, prog, cm, cfg.MaxInstrs) })
	ov := cm.Overlay()
	cm.Release()
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	l := &t.layers
	l.profileAlloc += profAlloc
	l.compileAlloc += compAlloc
	l.cpuInstrs += classic.Acct.Instrs
	l.forks++
	l.overlayWords += uint64(ov.Words) + uint64(ov.Pages)*overlayPageWords
	st := ann.Stats
	l.loadsSeen += st.LoadsSeen
	l.slicesBuilt += st.SlicesBuilt
	l.slicesSelected += st.SlicesSelected
	l.invalid += st.RejectedInvalid
	t.mu.Unlock()
	return &harness.Artifacts{
		Prog: prog, Initial: img.Mem(), Image: img, Profile: prof,
		Ann: ann, OracleAnn: oracleAnn, Classic: classic,
	}, nil
}

// overlayPageWords is the size of one overlay page of a forked memory
// (internal/mem pageWords).
const overlayPageWords = 4096

// policyBinary maps a policy label to its binary and runtime policy, as
// the harness does (paper §5.1).
func policyBinary(art *harness.Artifacts, label string) (*compiler.Annotated, policy.Kind) {
	switch label {
	case "Oracle":
		return art.OracleAnn, policy.Exact
	case "C-Oracle":
		return art.Ann, policy.Exact
	case "FLC":
		return art.Ann, policy.FLC
	case "LLC":
		return art.Ann, policy.LLC
	default:
		return art.Ann, policy.Compiler
	}
}

// policies runs the five policy simulations, t.workers at a time, each on
// its own fork of the sealed image.
func (t *tracedLayers) policies(op, root int, cfg harness.Config, art *harness.Artifacts, sim *simCounts) (map[string]*harness.PolicyRun, error) {
	labels := harness.PolicyLabels
	runs := make([]*harness.PolicyRun, len(labels))
	errs := make([]error, len(labels))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < t.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				runs[j], errs[j] = t.policy(op, root, cfg, art, labels[j], sim)
			}
		}()
	}
	for j := range labels {
		next <- j
	}
	close(next)
	wg.Wait()
	out := map[string]*harness.PolicyRun{}
	for j, label := range labels {
		if errs[j] != nil {
			return nil, fmt.Errorf("%s/%s: %w", art.Prog.Name, label, errs[j])
		}
		out[label] = runs[j]
	}
	return out, nil
}

func (t *tracedLayers) policy(op, root int, cfg harness.Config, art *harness.Artifacts, label string, sim *simCounts) (*harness.PolicyRun, error) {
	binary, k := policyBinary(art, label)
	var fm *mem.Memory
	t.tr.do(op, root, "mem.fork", func() { fm = art.Image.Fork() })
	defer fm.Release()
	var m *amnesic.Machine
	var err error
	t.tr.do(op, root, "amnesic.new", func() { m, err = amnesic.New(cfg.Model, binary, fm, policy.New(k), cfg.UArch) })
	if err != nil {
		return nil, err
	}
	m.MaxInstrs = cfg.MaxInstrs
	t.tr.do(op, root, "amnesic.run", func() { err = m.Run() })
	if err != nil {
		return nil, err
	}
	classic := art.Classic
	run := &harness.PolicyRun{
		Label: label, Acct: m.Acct, Stat: m.Stat,
		EDPGain:    stats.Gain(classic.Acct.EDP(), m.Acct.EDP()),
		EnergyGain: stats.Gain(classic.Acct.EnergyNJ, m.Acct.EnergyNJ),
		TimeGain:   stats.Gain(classic.Acct.TimeNS, m.Acct.TimeNS),
		Verified:   m.Regs == classic.Regs,
	}
	run.Swapped, run.SwappedCount = swappedProfile(binary, art.Profile, m.Stat)
	if cfg.Verify && !run.Verified {
		return nil, fmt.Errorf("architectural state diverges from classic execution")
	}

	c := simCounts{amnInstrs: m.Acct.Instrs, rcmpFired: m.Stat.RcmpRecomputed, rcmpTotal: m.Stat.RcmpTotal}
	c.trace.TotalInstrs = m.Acct.Instrs
	if e := m.Engine; e != nil {
		c.trace.Built, c.trace.Blacklisted, c.trace.Invalidations = e.Built, e.Blacklisted, e.Invalidations
		c.trace.Replays, c.trace.ReplayedInstrs = e.Replays, e.ReplayedInstrs
	}
	ov := fm.Overlay()
	t.mu.Lock()
	sim.add(c)
	t.layers.forks++
	t.layers.overlayWords += uint64(ov.Words) + uint64(ov.Pages)*overlayPageWords
	t.mu.Unlock()
	return run, nil
}

// swappedProfile weights each slice's classic per-load service profile by
// its firing count: the paper's Table 5 rows, computed as the harness does.
func swappedProfile(binary *compiler.Annotated, prof *profile.Profile, st amnesic.Stats) ([energy.NumLevels]float64, uint64) {
	var acc [energy.NumLevels]float64
	var total float64
	var count uint64
	for _, si := range binary.Slices {
		fires := st.SliceRecomputes[si.ID]
		if fires == 0 {
			continue
		}
		li := prof.Loads[si.LoadPC]
		if li == nil || li.Count == 0 {
			continue
		}
		for l := energy.L1; l < energy.NumLevels; l++ {
			acc[l] += float64(fires) * li.PrLevel(l)
		}
		total += float64(fires)
		count += fires
	}
	if total > 0 {
		for l := range acc {
			acc[l] = 100 * acc[l] / total
		}
	}
	return acc, count
}

// checkpoint mirrors harness.RunCheckpoint with spans around each engine:
// per policy an uninterrupted run, a run crashed at 60%, and a restart
// from the crashed run's last checkpoint.
func (t *tracedLayers) checkpoint(op, root int, cfg harness.Config, w *workloads.Workload, art *harness.Artifacts) ([]*harness.CheckpointResult, error) {
	classic := art.Classic
	iv := classic.Acct.Instrs/8 + 1
	crash := classic.Acct.Instrs * 3 / 5
	if crash == 0 {
		crash = 1
	}
	engine := func(pol ckpt.Policy, crashAt uint64) (*ckpt.Engine, error) {
		return ckpt.NewEngineImage(cfg.Model, art.Prog, art.Image, art.OracleAnn, art.Profile, ckpt.Config{
			Policy: pol, Interval: iv, MaxInstrs: cfg.MaxInstrs, CrashAt: crashAt,
		})
	}
	var out []*harness.CheckpointResult
	for _, pol := range harness.CheckpointPolicies {
		row := &harness.CheckpointResult{Workload: w.Name, Policy: pol, Interval: iv}
		var steady, crashed, resumed *ckpt.Engine
		var res, cres, rres *ckpt.RunResult
		var err error
		t.tr.do(op, root, "ckpt.run", func() {
			if steady, err = engine(pol, 0); err == nil {
				res, err = steady.Run()
			}
		})
		if err != nil {
			return nil, err
		}
		if !res.Completed {
			return nil, fmt.Errorf("%s checkpoint (%s): run did not complete", w.Name, pol)
		}
		st := steady.Stats
		row.Checkpoints = st.Taken
		row.AvgPayloadWords = float64(st.SavedWords)/float64(st.Taken) + isa.NumRegs
		row.FootprintWords = float64(st.FullWords)/float64(st.Taken) + isa.NumRegs
		row.SavingsPct = 100 * (1 - row.AvgPayloadWords/row.FootprintWords)
		row.CkptEnergyNJ = st.CkptEnergyNJ

		t.tr.do(op, root, "ckpt.run", func() {
			if crashed, err = engine(pol, crash); err == nil {
				cres, err = crashed.Run()
			}
		})
		if err != nil {
			return nil, err
		}
		if !cres.Crashed {
			return nil, fmt.Errorf("%s checkpoint (%s): fault at %d did not fire", w.Name, pol, crash)
		}
		ck := crashed.Checkpoints[len(crashed.Checkpoints)-1]
		t.tr.do(op, root, "ckpt.restart", func() {
			if resumed, err = engine(pol, 0); err == nil {
				rres, err = resumed.Restart(ck)
			}
		})
		if err != nil {
			return nil, err
		}
		row.RestartWords = rres.Restore.Words
		row.RestartRecomputed = rres.Restore.Recomputed
		row.RestartEnergyNJ = rres.Restore.EnergyNJ
		row.RestartTimeNS = rres.Restore.TimeNS
		row.Verified = rres.Completed && rres.Regs == classic.Regs && rres.Acct == classic.Acct
		out = append(out, row)

		t.mu.Lock()
		t.layers.ckptPayload += row.AvgPayloadWords
		t.layers.ckptRows++
		t.layers.ckptRecomputed += row.RestartRecomputed
		t.mu.Unlock()
	}
	return out, nil
}
