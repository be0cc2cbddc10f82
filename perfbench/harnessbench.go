package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/energy"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// harnessConfig is the evaluation configuration of both harness
// workloads. workers 0 means GOMAXPROCS.
func harnessConfig(cache *harness.ArtifactCache, workers int) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = harnessScale
	cfg.Workers = workers
	cfg.Cache = cache
	return cfg
}

// renderReport renders the paper's per-program report tables, the stage
// every CLI evaluation ends with.
func renderReport(r *harness.BenchResult) []byte {
	var b bytes.Buffer
	rs := []*harness.BenchResult{r}
	harness.Fig3(&b, rs)
	harness.Fig4(&b, rs)
	harness.Fig5(&b, rs)
	harness.Table4(&b, rs)
	harness.Table5(&b, rs)
	return b.Bytes()
}

// evalResult is what one evaluation produced, traced or not.
type evalResult struct {
	suite     *harness.BenchResult
	report    []byte
	breakEven float64
	ckpt      []*harness.CheckpointResult
	warm      bool // break-even and checkpoint ran too
}

// check compares an evaluation with the pins.
func (e *evalResult) check(ps *pinSet) error {
	if err := ps.checkSuite(e.suite); err != nil {
		return err
	}
	if !e.warm {
		return nil
	}
	name := e.suite.Workload.Name
	if err := ps.checkBreakEven(name, e.breakEven); err != nil {
		return err
	}
	return ps.checkCheckpoint(name, e.ckpt)
}

// same reports whether a traced evaluation equals the untraced one.
func (e *evalResult) same(o *evalResult) error {
	if suiteDigest(e.suite) != suiteDigest(o.suite) {
		return fmt.Errorf("%s: traced suite result differs from harness.Run", e.suite.Workload.Name)
	}
	if !bytes.Equal(e.report, o.report) {
		return fmt.Errorf("%s: traced report differs from harness.Run", e.suite.Workload.Name)
	}
	if e.warm && (e.breakEven != o.breakEven || checkpointDigest(e.ckpt) != checkpointDigest(o.ckpt)) {
		return fmt.Errorf("%s: traced break-even or checkpoint differs from harness", e.suite.Workload.Name)
	}
	return nil
}

// untracedEval is one evaluation through the harness entry points. warm
// adds the break-even sweep and the checkpoint runs.
func untracedEval(cfg harness.Config, w *workloads.Workload, warm bool) (*evalResult, error) {
	res, err := harness.Run(cfg, w)
	if err != nil {
		return nil, err
	}
	e := &evalResult{suite: res, report: renderReport(res), warm: warm}
	if !warm {
		return e, nil
	}
	if e.breakEven, err = harness.BreakEven(cfg, w, breakEvenMaxR); err != nil {
		return nil, err
	}
	if e.ckpt, err = harness.RunCheckpoint(cfg, w, 0); err != nil {
		return nil, err
	}
	return e, nil
}

// harnessRun drives one harness workload: set-up, then a fixed number of
// rounds of evaluations.
type harnessRun struct {
	cfg   runConfig
	progs []*workloads.Workload
	model *energy.Model
	warm  bool
	// newCache returns the cache an evaluation uses: fresh per evaluation
	// for cold-suite, the shared prepared one for warm-sim.
	newCache func() *harness.ArtifactCache
}

func (h *harnessRun) measure(setupS float64) (*outcome, error) {
	o := &outcome{}
	var lats, tracedLats []float64
	byProgram := map[string][]float64{}
	var simInstrs uint64
	var sim simCounts
	var tl *tracedLayers
	if h.cfg.trace {
		tl = newTracedLayers(h.cfg.nproc)
		o.spans = tl.tr
	}
	allocStart := totalAlloc()
	var wall time.Duration
	rs := newRounds(h.cfg.seed, len(h.progs), h.cfg.rounds)
	for {
		_, p, ok := rs.next()
		if !ok {
			break
		}
		w := h.progs[p]
		cfg := harnessConfig(h.newCache(), h.cfg.nproc)
		cfg.Model = h.model
		o.attempted++
		// Each evaluation starts from a collected heap, so none pays for
		// garbage an earlier one left.
		runtime.GC()
		start := time.Now()
		e, err := untracedEval(cfg, w, h.warm)
		d := time.Since(start)
		wall += d
		if err == nil {
			err = e.check(h.cfg.pins)
		}
		if err != nil {
			o.fail(w.Name, err)
			continue
		}
		lats = append(lats, ms(d))
		byProgram[w.Name] = append(byProgram[w.Name], ms(d))
		for _, run := range e.suite.Runs {
			simInstrs += run.Acct.Instrs
		}
		if tl == nil {
			continue
		}
		o.attempted++
		op := len(tracedLats)
		start = time.Now()
		te, err := tl.eval(op, cfg, w, h.warm, &sim)
		td := time.Since(start)
		if err == nil {
			err = te.same(e)
		}
		if err != nil {
			o.fail(w.Name+" (traced)", err)
			continue
		}
		tracedLats = append(tracedLats, ms(td))
	}
	if tl != nil {
		hl := tl.layers
		hl.sum = tl.tr.summarize()
		hl.tracedP50 = quantile(tracedLats, 0.5)
		hl.untracedP50 = quantile(lats, 0.5)
		o.metrics = perLayer(len(tracedLats), sim, hl, serveLayers{})
		return o, nil
	}
	ops := float64(len(lats))
	o.metrics = map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(lats, 0.5),
		"op_p90_ms":       tailLatency(byProgram, 0.9),
		"ops_per_s":       ratio(ops, wall.Seconds()),
		"sim_mips":        ratio(float64(simInstrs), wall.Seconds()) / 1e6,
		"alloc_mb_per_op": ratio(float64(totalAlloc()-allocStart)/(1<<20), ops),
		"peak_rss_mb":     peakRSSMB(),
	}
	return o, nil
}

// runColdSuite: every evaluation builds, profiles and compiles its program
// from a fresh ArtifactCache, as a cold CLI run does. Set-up builds all
// programs and evaluates one (is) to warm the process.
func runColdSuite(cfg runConfig) (*outcome, error) {
	h := &harnessRun{cfg: cfg, progs: workloads.Responsive(), model: energy.Default(),
		newCache: harness.NewArtifactCache}
	_, setupS, err := medianSetup(3, func() (struct{}, error) {
		for _, w := range h.progs {
			w.Build(harnessScale)
		}
		wcfg := harnessConfig(harness.NewArtifactCache(), cfg.nproc)
		wcfg.Model = h.model
		e, err := untracedEval(wcfg, h.progs[0], false)
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, e.check(cfg.pins)
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("cold-suite set-up: %w", err)
	}
	return h.measure(setupS)
}

// runWarmSim: set-up prepares every program into one shared ArtifactCache
// (nproc at a time); evaluations then only simulate.
func runWarmSim(cfg runConfig) (*outcome, error) {
	h := &harnessRun{cfg: cfg, progs: workloads.Responsive(), model: energy.Default(), warm: true}
	cache, setupS, err := medianSetup(3, func() (*harness.ArtifactCache, error) {
		return prepareAll(h.progs, h.model, cfg.nproc)
	}, func(*harness.ArtifactCache) {})
	if err != nil {
		return nil, fmt.Errorf("warm-sim set-up: %w", err)
	}
	h.newCache = func() *harness.ArtifactCache { return cache }
	return h.measure(setupS)
}

// prepareAll fills a fresh cache with every program's artifacts using
// workers goroutines.
func prepareAll(progs []*workloads.Workload, model *energy.Model, workers int) (*harness.ArtifactCache, error) {
	cache := harness.NewArtifactCache()
	cfg := harnessConfig(cache, 1)
	cfg.Model = model
	next := make(chan *workloads.Workload)
	errs := make(chan error, len(progs))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range next {
				if _, err := cache.Get(cfg, w); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, w := range progs {
		next <- w
	}
	close(next)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return cache, nil
}
