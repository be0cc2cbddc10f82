package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/exec"
	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
	"github.com/amnesiac-sim/amnesiac/internal/trace"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

const (
	// coldBudget is the first per-session instruction budget. Every
	// session's cold spec gets its own budget above every program's length,
	// so its prepare key is new and the job runs cold; results equal those
	// under the default budget.
	coldBudget = exec.DefaultMaxInstrs + 1
	// warmupBudget is the set-up job's budget, distinct from every session.
	warmupBudget   = exec.DefaultMaxInstrs - 1
	difftestSeeds  = 20
	requestTimeout = 120 * time.Second
)

// daemon is one in-process amnesiacd on a loopback port chosen by the OS,
// with its durable store in a temporary directory.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	dir    string
	served chan struct{}
}

// startDaemon boots a daemon running jobWorkers jobs at a time, each job
// on one simulation worker, so the daemon runs at most jobWorkers harness
// workers.
func startDaemon(jobWorkers int) (*daemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{StoreDir: dir, JobWorkers: jobWorkers, SimWorkers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan struct{}),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop shuts the daemon down, waits for its listener goroutine and
// removes its store directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = d.hs.Shutdown(ctx)
	cancel()
	d.srv.Close()
	<-d.served
	os.RemoveAll(d.dir)
}

// client is one closed-loop caller: one request in flight at a time on at
// most one connection.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobResult is one job as a CLI caller sees it: submit with ?wait=1, then
// fetch the report.
type jobResult struct {
	status server.JobStatus
	report server.Report
	total  time.Duration
}

// read sends req and returns the body of a 2xx response.
func (c *client) read(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) job(base string, spec server.JobSpec) (*jobResult, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs?wait=1", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	body, err := c.read(req)
	if err != nil {
		return nil, err
	}
	jr := &jobResult{}
	if err := json.Unmarshal(body, &jr.status); err != nil {
		return nil, err
	}
	if jr.status.State != server.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", jr.status.ID, jr.status.State, jr.status.Error)
	}
	req, err = http.NewRequest(http.MethodGet, base+jr.status.ReportURL, nil)
	if err != nil {
		return nil, err
	}
	body, err = c.read(req)
	if err != nil {
		return nil, err
	}
	jr.total = time.Since(start)
	return jr, json.Unmarshal(body, &jr.report)
}

// scrape reads the unlabelled samples of the daemon's /metrics.
func (c *client) scrape(base string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	body, err := c.read(req)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[strings.TrimPrefix(f[0], "amnesiacd_")] = v
		}
	}
	return out, sc.Err()
}

// checkSuiteJob compares a suite job's report with the pins.
func checkSuiteJob(ps *pinSet, jr *jobResult, policies []string) error {
	if len(jr.report.Suite) != 1 {
		return fmt.Errorf("suite report has %d rows, want 1", len(jr.report.Suite))
	}
	return ps.checkServeRow(jr.report.Suite[0], policies)
}

// policySubset returns the k-th proper, non-empty subset of the policies
// in canonical order, so each warm spec asks for a set the cold spec did
// not.
func policySubset(k int) []string {
	full := 1<<len(harness.PolicyLabels) - 1
	mask := k%(full-1) + 1
	var out []string
	for i, l := range harness.PolicyLabels {
		if mask&(1<<i) != 0 {
			out = append(out, l)
		}
	}
	return out
}

// session is one caller's work on one program: a cold suite job, a warm
// job over the same prepared image with another policy subset, the cold
// spec again (a result-cache hit), and a difftest over fresh seeds.
type session struct {
	prog       *workloads.Workload
	cold, warm server.JobSpec
	difftest   server.JobSpec
}

func newSession(prog *workloads.Workload, k int, difftestBase int64) session {
	cold := server.JobSpec{Kind: server.KindSuite, Workloads: []string{prog.Name},
		Scale: serveScale, MaxInstrs: coldBudget + uint64(k)}
	warm := cold
	warm.Policies = policySubset(k)
	return session{
		prog: prog, cold: cold, warm: warm,
		difftest: server.JobSpec{Kind: server.KindDifftest, Seed: difftestBase + int64(k)*difftestSeeds, Seeds: difftestSeeds},
	}
}

// sessionStats accumulates what the clients measured.
type sessionStats struct {
	mu        sync.Mutex
	attempted int
	failed    int
	latencies []float64 // per session, ms
	byProgram map[string][]float64
	sim       simCounts
	layers    serveLayers
	tr        *tracer
	ops       int
}

func (st *sessionStats) fail(what string, err error) {
	st.mu.Lock()
	st.failed++
	st.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
}

// run executes one session's jobs in order.
func (st *sessionStats) run(c *client, d *daemon, s session, ps *pinSet) {
	st.mu.Lock()
	op := st.ops
	st.ops++
	st.mu.Unlock()
	var root int
	if st.tr != nil {
		root = st.tr.begin(op, -1, "session/"+s.prog.Name)
		defer st.tr.end(root)
	}
	type step struct {
		kind  string
		spec  server.JobSpec
		check func(*jobResult) error
	}
	steps := []step{
		{"cold", s.cold, func(jr *jobResult) error { return checkSuiteJob(ps, jr, harness.PolicyLabels) }},
		{"warm", s.warm, func(jr *jobResult) error { return checkSuiteJob(ps, jr, s.warm.Policies) }},
		{"hit", s.cold, func(jr *jobResult) error {
			if !jr.status.CacheHit {
				return errors.New("resubmitted spec was not a result-cache hit")
			}
			return checkSuiteJob(ps, jr, harness.PolicyLabels)
		}},
		{"difftest", s.difftest, func(jr *jobResult) error {
			rep := jr.report.Difftest
			if rep == nil || rep.Failed != 0 || rep.Passed != s.difftest.Seeds {
				return fmt.Errorf("difftest over seeds %d+%d diverged: %+v", s.difftest.Seed, s.difftest.Seeds, rep)
			}
			return nil
		}},
	}
	var total time.Duration
	ok := true
	for _, stp := range steps {
		st.mu.Lock()
		st.attempted++
		st.mu.Unlock()
		var id int
		if st.tr != nil {
			id = st.tr.begin(op, root, "job."+stp.kind)
		}
		jr, err := c.job(d.url, stp.spec)
		if st.tr != nil {
			st.tr.end(id)
		}
		if err == nil {
			err = stp.check(jr)
		}
		if err != nil {
			st.fail(fmt.Sprintf("%s job on %s", stp.kind, s.prog.Name), err)
			ok = false
			continue
		}
		total += jr.total
		st.observe(op, id, stp.kind, jr)
	}
	if ok {
		st.mu.Lock()
		st.latencies = append(st.latencies, ms(total))
		st.byProgram[s.prog.Name] = append(st.byProgram[s.prog.Name], ms(total))
		st.mu.Unlock()
	}
}

// observe folds one finished job into the per-layer numbers: server-side
// queue and execution spans from its status timestamps, HTTP time as the
// rest of the client's latency, and the simulator counters it reports.
func (st *sessionStats) observe(op, parent int, kind string, jr *jobResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	l := &st.layers
	l.jobs++
	if t := jr.status.Trace; t != nil {
		st.sim.add(simCounts{amnInstrs: t.TotalInstrs, trace: traceStats(t)})
	}
	if !jr.status.CacheHit {
		for _, w := range jr.report.Suite {
			for _, p := range w.Policies {
				st.sim.rcmpFired += p.RcmpFired
				st.sim.rcmpTotal += p.RcmpTotal
			}
		}
	}
	lat := ms(jr.total)
	switch kind {
	case "cold":
		l.cold = append(l.cold, lat)
	case "warm":
		l.warm = append(l.warm, lat)
	case "hit":
		l.hit = append(l.hit, lat)
	case "difftest":
		l.difftest = append(l.difftest, lat)
	}
	created, err1 := time.Parse(time.RFC3339Nano, jr.status.Created)
	finished, err2 := time.Parse(time.RFC3339Nano, jr.status.Finished)
	if err1 != nil || err2 != nil {
		return
	}
	l.http += jr.total - finished.Sub(created)
	started, err := time.Parse(time.RFC3339Nano, jr.status.Started)
	if err != nil {
		return // a cache hit never starts
	}
	l.queueWait += started.Sub(created)
	l.exec += finished.Sub(started)
	if kind == "difftest" {
		l.difftestSeeds += difftestSeeds
		l.difftestExec += finished.Sub(started)
	}
	if st.tr != nil {
		st.tr.add(op, parent, "server.queue", created, started)
		st.tr.add(op, parent, "server.exec", started, finished)
	}
}

func traceStats(t *server.TraceStatus) trace.Stats {
	return trace.Stats{Built: t.Built, Blacklisted: t.Blacklisted, Invalidations: t.Invalidations,
		Replays: t.Replays, ReplayedInstrs: t.ReplayedInstrs, TotalInstrs: t.TotalInstrs}
}

// runServeMix drives one in-process daemon with nproc closed-loop clients
// through a fixed number of rounds of sessions. Set-up boots the daemon
// and serves its first cold job.
func runServeMix(cfg runConfig) (*outcome, error) {
	progs := workloads.Responsive()
	d, setupS, err := medianSetup(3, func() (*daemon, error) {
		d, err := startDaemon(cfg.nproc)
		if err != nil {
			return nil, err
		}
		c := newClient()
		defer c.close()
		spec := server.JobSpec{Kind: server.KindSuite, Workloads: []string{progs[0].Name},
			Scale: serveScale, MaxInstrs: warmupBudget}
		jr, err := c.job(d.url, spec)
		if err == nil {
			err = checkSuiteJob(cfg.pins, jr, harness.PolicyLabels)
		}
		if err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	}, (*daemon).stop)
	if err != nil {
		return nil, fmt.Errorf("serve-mix set-up: %w", err)
	}
	defer d.stop()

	st := &sessionStats{byProgram: map[string][]float64{}}
	o := &outcome{}
	if cfg.trace {
		st.tr = newTracer()
		o.spans = st.tr
	}
	probe := newClient()
	defer probe.close()
	before, err := probe.scrape(d.url)
	if err != nil {
		return nil, err
	}
	difftestBase := rand.New(rand.NewSource(cfg.seed)).Int63n(1<<40) + 1
	order := newRounds(cfg.seed, len(progs), cfg.rounds)
	var orderMu sync.Mutex
	allocStart := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for {
				orderMu.Lock()
				r, p, ok := order.next()
				orderMu.Unlock()
				if !ok {
					return
				}
				st.run(c, d, newSession(progs[p], r*len(progs)+p, difftestBase), cfg.pins)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	alloc := totalAlloc() - allocStart
	after, err := probe.scrape(d.url)
	if err != nil {
		return nil, err
	}

	o.attempted, o.failed = st.attempted, st.failed
	sessions := float64(len(st.latencies))
	if cfg.trace {
		l := st.layers
		l.wall = wall
		delta := func(name string) float64 { return after[name] - before[name] }
		l.resultHits, l.resultMisses = delta("result_cache_hits_total"), delta("result_cache_misses_total")
		l.preparedHits, l.preparedMiss = delta("prepared_image_hits_total"), delta("prepared_image_misses_total")
		l.preparedImages = after["prepared_images"]
		l.storeEntries, l.storeBytes = after["store_entries"], after["store_bytes"]
		l.storeMisses = delta("store_misses_total")
		o.metrics = perLayer(st.ops, st.sim, harnessLayers{}, l)
		return o, nil
	}
	o.metrics = map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(st.latencies, 0.5),
		"op_p90_ms":       tailLatency(st.byProgram, 0.9),
		"ops_per_s":       ratio(sessions, wall.Seconds()),
		"sim_mips":        ratio(float64(st.sim.amnInstrs), wall.Seconds()) / 1e6,
		"alloc_mb_per_op": ratio(float64(alloc)/(1<<20), sessions),
		"peak_rss_mb":     peakRSSMB(),
	}
	return o, nil
}
