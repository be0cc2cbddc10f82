package main

import (
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/trace"
)

// simCounts are simulator counters both kinds of workload can read: the
// harness workloads from the machines they run, the serve workloads from
// job status and reports.
type simCounts struct {
	amnInstrs, rcmpFired, rcmpTotal uint64
	trace                           trace.Stats
}

func (c *simCounts) add(o simCounts) {
	c.amnInstrs += o.amnInstrs
	c.rcmpFired += o.rcmpFired
	c.rcmpTotal += o.rcmpTotal
	c.trace.Built += o.trace.Built
	c.trace.Blacklisted += o.trace.Blacklisted
	c.trace.Invalidations += o.trace.Invalidations
	c.trace.Replays += o.trace.Replays
	c.trace.ReplayedInstrs += o.trace.ReplayedInstrs
	c.trace.TotalInstrs += o.trace.TotalInstrs
}

// harnessLayers is what a traced harness run measured.
type harnessLayers struct {
	sum                     spanSummary
	tracedP50, untracedP50  float64 // op latency, ms
	cpuInstrs               uint64
	overlayWords            uint64
	forks                   int
	loadsSeen, slicesBuilt  int
	slicesSelected, invalid int
	profileAlloc            uint64
	compileAlloc            uint64
	ckptPayload             float64 // summed per-row mean payload words
	ckptRows                int
	ckptRecomputed          int
}

// serveLayers is what a traced serve run measured.
type serveLayers struct {
	queueWait, exec, http      time.Duration // summed over jobs
	cold, warm, hit, difftest  []float64     // job latency, ms
	jobs                       int
	wall                       time.Duration
	resultHits, resultMisses   float64
	preparedHits, preparedMiss float64
	preparedImages             float64
	storeEntries, storeBytes   float64
	storeMisses                float64
	difftestSeeds              int
	difftestExec               time.Duration
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer renders every per-layer metric. ops is the number of measured
// operations (evaluations or sessions); per-operation metrics are means
// over them. A layer a workload does not exercise reads 0.
func perLayer(ops int, sim simCounts, h harnessLayers, s serveLayers) map[string]float64 {
	n := float64(ops)
	perOp := func(x float64) float64 { return ratio(x, n) }
	selfMS := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += h.sum.self[name]
		}
		return ms(d)
	}
	perCallUS := func(name string) float64 {
		return ratio(float64(h.sum.self[name])/float64(time.Microsecond), float64(h.sum.calls[name]))
	}
	mips := func(instrs uint64, name string) float64 {
		return ratio(float64(instrs), h.sum.self[name].Seconds()) / 1e6
	}
	opWall := ms(h.sum.opWall)
	m := map[string]float64{
		"workloads.build_ms":         perOp(selfMS("workloads.build")),
		"profile.ms":                 perOp(selfMS("profile.collect")),
		"profile.alloc_mb":           perOp(float64(h.profileAlloc) / (1 << 20)),
		"compiler.ms":                perOp(selfMS("compiler.compile")),
		"compiler.oracle_ms":         perOp(selfMS("compiler.compile_oracle")),
		"compiler.alloc_mb":          perOp(float64(h.compileAlloc) / (1 << 20)),
		"compiler.loads_seen":        perOp(float64(h.loadsSeen)),
		"compiler.slices_built":      perOp(float64(h.slicesBuilt)),
		"compiler.slices_selected":   perOp(float64(h.slicesSelected)),
		"compiler.valid_ratio":       ratio(float64(h.slicesBuilt), float64(h.slicesBuilt+h.invalid)),
		"compiler.share_pct":         100 * ratio(selfMS("compiler.compile", "compiler.compile_oracle"), opWall),
		"cpu.ms":                     perOp(selfMS("cpu.run")),
		"cpu.instrs":                 perOp(float64(h.cpuInstrs)),
		"cpu.mips":                   mips(h.cpuInstrs, "cpu.run"),
		"amnesic.ms":                 perOp(selfMS("amnesic.new", "amnesic.run")),
		"amnesic.instrs":             perOp(float64(sim.amnInstrs)),
		"amnesic.mips":               mips(sim.amnInstrs, "amnesic.run"),
		"amnesic.rcmp_fired":         perOp(float64(sim.rcmpFired)),
		"amnesic.rcmp_total":         perOp(float64(sim.rcmpTotal)),
		"amnesic.fire_ratio":         ratio(float64(sim.rcmpFired), float64(sim.rcmpTotal)),
		"trace.coverage_pct":         sim.trace.Coverage(),
		"trace.built":                perOp(float64(sim.trace.Built)),
		"trace.blacklisted":          perOp(float64(sim.trace.Blacklisted)),
		"trace.replays":              perOp(float64(sim.trace.Replays)),
		"trace.invalidations":        perOp(float64(sim.trace.Invalidations)),
		"mem.seal_us":                perCallUS("mem.seal"),
		"mem.fork_us":                perCallUS("mem.fork"),
		"mem.overlay_kb":             ratio(float64(h.overlayWords)*8/1024, float64(h.forks)),
		"ckpt.run_ms":                perOp(selfMS("ckpt.run")),
		"ckpt.restart_ms":            perOp(selfMS("ckpt.restart")),
		"ckpt.payload_words":         ratio(h.ckptPayload, float64(h.ckptRows)),
		"ckpt.recomputed_words":      perOp(float64(h.ckptRecomputed)),
		"harness.breakeven_ms":       perOp(selfMS("harness.breakeven")),
		"harness.report_ms":          perOp(selfMS("harness.report")),
		"harness.unattributed_ms":    perOp(ms(h.sum.opWall - h.sum.covered)),
		"bench.span_coverage_pct":    100 * ratio(float64(h.sum.covered), float64(h.sum.opWall)),
		"bench.traced_op_p50_ms":     h.tracedP50,
		"bench.untraced_op_p50_ms":   h.untracedP50,
		"bench.tracing_overhead_ms":  h.tracedP50 - h.untracedP50,
		"server.queue_wait_ms":       perOp(ms(s.queueWait)),
		"server.exec_ms":             perOp(ms(s.exec)),
		"server.http_ms":             perOp(ms(s.http)),
		"server.job_cold_p50_ms":     quantile(s.cold, 0.5),
		"server.job_warm_p50_ms":     quantile(s.warm, 0.5),
		"server.job_hit_p50_ms":      quantile(s.hit, 0.5),
		"server.job_difftest_p50_ms": quantile(s.difftest, 0.5),
		"server.jobs_per_s":          ratio(float64(s.jobs), s.wall.Seconds()),
		"server.result_hit_ratio":    ratio(s.resultHits, s.resultHits+s.resultMisses),
		"server.prepared_hit_ratio":  ratio(s.preparedHits, s.preparedHits+s.preparedMiss),
		"server.prepared_images":     s.preparedImages,
		"difftest.seeds_per_s":       ratio(float64(s.difftestSeeds), s.difftestExec.Seconds()),
		"store.entries":              s.storeEntries,
		"store.bytes":                s.storeBytes,
		"store.misses":               s.storeMisses,
	}
	return m
}
