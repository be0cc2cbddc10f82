// Command perfbench is the repository benchmark. It runs one named
// workload for a seed and a time budget, checks every simulated result
// against the outputs pinned in pins.json, and prints one JSON line: the
// end-to-end metrics, or with --trace 1 the per-layer metrics.
//
//	bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
//
// Workloads (NOTES.md says why each exists and what it should move):
//
//	cold-suite     one caller evaluates the 11 responsive programs at scale
//	               0.3, each evaluation from a fresh ArtifactCache
//	warm-sim       the programs are prepared once; each evaluation runs the
//	               five policies, the break-even sweep and checkpoint/restart
//	serve-mix      nproc clients drive one in-process daemon with sessions
//	               of cold, warm, cache-hit and difftest jobs
//
// Everything runs in this process: no prebuilt binaries, no fixed ports.
// The process exits non-zero only when the run itself breaks; a wrong
// output counts its operation as failed and sets "correct" to false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
)

// A workload runs cfg.rounds rounds and reports what it measured.
type workload func(cfg runConfig) (*outcome, error)

// workloadTable holds each workload with the wall time one round takes on
// the 2-CPU reference host. --seconds is converted into whole rounds at
// that pace, so every run measures the same work whatever the host's
// speed at the time: the host drifts by up to 2x over minutes, and a time
// box would change how many operations, and which, a run measures.
var workloadTable = map[string]struct {
	run          workload
	roundSeconds float64
}{
	"cold-suite": {runColdSuite, 6.5},
	"warm-sim":   {runWarmSim, 6.5},
	"serve-mix":  {runServeMix, 4.3},
}

type runConfig struct {
	seed   int64
	rounds int
	trace  bool
	nproc  int
	pins   *pinSet
}

// outcome is one run's result. metrics holds every value the run
// measured, keyed by declared metric name.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	spans     *tracer // nil for untraced runs
}

// fail records a failed operation with its reason on standard error.
func (o *outcome) fail(op string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadDeclared reads the metric declarations from BENCHMARK.json in the
// current directory (the repository root).
func loadDeclared() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, d := range append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !metricName.MatchString(d.Name) {
			return nil, fmt.Errorf("BENCHMARK.json: metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
	}
	return &bf, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render selects the declared metrics of the requested kind. It refuses a
// measured name that is not declared, and a declared name the run did not
// measure.
func render(o *outcome, decl []declared, all *benchmarkFile) (*result, error) {
	known := map[string]bool{}
	for _, d := range append(append([]declared(nil), all.EndToEnd...), all.PerLayer...) {
		known[d.Name] = true
	}
	var names []string
	for name := range o.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !metricName.MatchString(name) || !known[name] {
			return nil, fmt.Errorf("measured metric %q is not declared in BENCHMARK.json", name)
		}
	}
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range decl {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %q was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload: cold-suite, warm-sim or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds at the reference host's pace (whole rounds, at least one)")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	writePins := flag.Bool("write-pins", false, "recompute pins.json from the current simulator and exit")
	flag.Parse()

	if *writePins {
		if err := regeneratePins("perfbench/pins.json"); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadTable[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	bf, err := loadDeclared()
	if err != nil {
		fatal(err)
	}
	ps, err := loadPins()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed: *seed, rounds: max(1, int(math.Round(*seconds/w.roundSeconds))), trace: *traceFlag == 1,
		nproc: runtime.GOMAXPROCS(0), pins: ps,
	}
	o, err := w.run(cfg)
	if err != nil {
		fatal(err)
	}
	decl := bf.EndToEnd
	if cfg.trace {
		decl = bf.PerLayer
	}
	res, err := render(o, decl, bf)
	if err != nil {
		fatal(err)
	}
	if o.spans != nil {
		if err := o.spans.write(fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", *name, *seed)); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
