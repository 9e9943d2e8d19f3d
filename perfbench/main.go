// Command perfbench is the repository's benchmark. It measures what an
// APST-DV user waits on: the paper reproduction suite, jobs submitted
// to a sim-mode daemon under open-loop load, and bulk jobs on a
// live-mode daemon with in-process frame workers.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// Every run sets up and measures all three parts, since every run must
// report every end-to-end metric; the workload (a part's name) weights
// its own part three to one. With --trace 0 the last line of standard
// output is the end-to-end result; with --trace 1 it is the per-layer
// result of a separate traced run, whose spans are written under --out.
// The line before the result is the run metadata. NOTES.md describes
// the parts, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's measurements and checks.
type bench struct {
	cfg     config
	width   int // nproc: pool width, sender count, worker count
	rng     *rand.Rand
	metrics map[string]metric
	meta    map[string]any

	attempted, failed int
	wrong             []string       // failed output checks
	phases            []*phaseResult // every serve phase, for the metadata
}

// attempt counts one attempted operation and whether it failed.
func (b *bench) attempt(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// check records an output check; a failed one fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempt(!ok)
	if !ok {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

// set records a metric. A value the run could not measure (NaN, from a
// percentile without enough samples beyond it) is a failed check and is
// left out.
func (b *bench) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(false, "metric %s could not be measured", name)
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: repro, serve or live")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 25, "measuring budget of one run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and the traced run's spans")
	flag.Parse()
	cfg.traced = traceFlag == 1
	if !slices.Contains(parts, cfg.workload) || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload repro|serve|live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	b := &bench{
		cfg: cfg, width: runtime.NumCPU(), rng: rand.New(rand.NewSource(cfg.seed)),
		metrics: map[string]metric{}, meta: runMeta(cfg),
	}
	if cfg.traced {
		err = b.runTraced(scratch)
	} else {
		err = b.runEndToEnd(scratch)
	}
	if err != nil {
		return nil, err
	}
	b.meta["failed_frac"] = float64(b.failed) / float64(b.attempted)
	b.meta["failed_checks"] = b.wrong
	b.meta["serve_phases"] = b.phases
	line, err := json.Marshal(map[string]any{"meta": b.meta})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return &result{Correct: len(b.wrong) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}, nil
}

// parts lists the benchmark's parts in round order; each is also the
// name of the workload that weights it.
var parts = []string{"repro", "serve", "live"}

// weight is how many samples of a part one round takes: the workload's
// own part three, the others one.
func (b *bench) weight(part string) int {
	if part == b.cfg.workload {
		return 3
	}
	return 1
}

// rigs is one complete set-up: both daemons, the workers and the input.
type rigs struct {
	serve *serveRig
	live  *liveRig
}

func (r *rigs) close() {
	if r.serve != nil {
		r.serve.close()
	}
	if r.live != nil {
		r.live.close()
	}
}

// setUp starts the serve and live rigs, generates the live input, and
// warms every part up: a repro pass (whose digest is checked), a short
// serve phase and one live job.
func (b *bench) setUp(dir string) (*rigs, error) {
	r := &rigs{}
	var err error
	if r.serve, err = startServe(b.width, false); err != nil {
		return nil, err
	}
	if err := r.serve.warmUp(); err != nil {
		r.close()
		return nil, err
	}
	if r.live, err = startLive(dir, b.width, uint64(b.cfg.seed)); err != nil {
		r.close()
		return nil, err
	}
	if j := r.live.runJob(); !j.ok(r.live) {
		r.close()
		return nil, fmt.Errorf("live warm-up job: %+v", j)
	}
	p, err := runReproPass(b.width, reproOrder(b.rng), nil)
	if err != nil {
		r.close()
		return nil, err
	}
	b.checkDigest(p.digest, "warm-up pass")
	return r, nil
}

func (b *bench) checkDigest(got, what string) {
	b.check(got == reproDigest, "repro %s digest %s, want %s", what, got, reproDigest)
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func (b *bench) runEndToEnd(dir string) error {
	var r *rigs
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if r, err = b.setUp(dir); err != nil {
			return err
		}
		times = append(times, time.Since(t).Seconds())
	}
	defer r.close()
	b.set("setup_s", median(times))
	b.meta["setup_s_all"] = times

	peak := startHeapSampler()
	e := &e2e{}
	searches := []*kneeSearch{
		newKneeSearch(2*anchorRate, kneeResolution, kneeMaxSteps),
		newKneeSearch(2*anchorRate, kneeResolution, kneeMaxSteps),
	}
	deadline := time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	for round := 0; round < minRounds || time.Now().Before(deadline) || searching(searches); round++ {
		for _, k := range searches {
			if rate, ok := k.next(); ok {
				runtime.GC()
				k.record(rate, b.servePhase(r.serve, "knee", rate, stepWindow(rate)).meetsLimit())
			}
		}
		runtime.GC()
		e.overloads = append(e.overloads, b.servePhase(r.serve, "overload", overloadRate, overloadWindow))
		for _, part := range parts {
			for k := 0; k < b.weight(part); k++ {
				runtime.GC()
				var err error
				switch part {
				case "repro":
					err = b.reproSample(e)
				case "serve":
					b.anchorSample(r.serve, e)
				case "live":
					b.liveSample(r.live, e)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	for _, k := range searches {
		b.check(k.knee() > 0, "serve knee search: no probed rate met the limit")
		e.Knees = append(e.Knees, k.knee())
		e.KneeSteps = append(e.KneeSteps, k.Steps)
	}
	// Every digest above matched the width-nproc reference; the suite's
	// output must not depend on the pool width.
	one, err := runReproPass(1, reproOrder(b.rng), nil)
	if err != nil {
		return err
	}
	b.checkDigest(one.digest, "width-1 pass")

	b.set("peak_heap_mb", peak()/(1<<20))
	b.set("repro_s", median(e.ReproWalls))
	b.set("knee_hz", mean(e.Knees))
	b.set("overload_goodput_hz", e.goodput())
	b.set("live_job_s", median(e.LiveSecs))
	// The serve latencies vary too much from run to run on a shared
	// 2-vCPU box to gate a change (see NOTES.md); every run reports
	// them here, and the traced run reports them as per-layer metrics.
	b.meta["done_p50_ms"] = finite(median(e.DoneP50))
	b.meta["done_p99_ms"] = finite(median(e.DoneP99))
	b.meta["overload_reject_p99_ms"] = finite(e.rejectP99())
	b.meta["samples"] = e
	b.meta["spec_seen_share"] = b.phases[0].Seen
	return nil
}

// The end-to-end schedule: rounds until the budget is spent (at least
// minRounds, and until both knee searches are done). A round takes the
// next probe of each of two knee searches, one overload burst, and each
// part's samples; knee_hz is the mean of the two searches.
const (
	minRounds    = 3
	anchorWindow = 500 * time.Millisecond
)

func searching(ks []*kneeSearch) bool {
	for _, k := range ks {
		if _, ok := k.next(); ok {
			return true
		}
	}
	return false
}

// e2e collects an untraced run's samples. Timings are medians over
// samples taken in rounds across the run, so a metric reflects the
// whole run rather than one slice of it.
type e2e struct {
	ReproWalls, DoneP50, DoneP99, Knees, LiveSecs []float64

	KneeSteps [][]kneeStep
	overloads []*phaseResult
}

// goodput is the jobs completed per second over all overload bursts.
func (e *e2e) goodput() float64 {
	var hz float64
	for _, p := range e.overloads {
		hz += p.CompletedHz
	}
	return hz / float64(len(e.overloads))
}

// rejectP99 is the p99 arrival → typed rejection over every rejection
// of every overload burst (NaN when fewer than minTail lie beyond it).
func (e *e2e) rejectP99() float64 {
	var all []float64
	for _, p := range e.overloads {
		all = append(all, p.rejectMs()...)
	}
	return summarize(all).P99
}

// MarshalJSON lists the samples behind each metric, with samples the
// run could not measure (NaN) as null.
func (e *e2e) MarshalJSON() ([]byte, error) {
	nulls := func(xs []float64) []any {
		out := make([]any, len(xs))
		for i, x := range xs {
			out[i] = finite(x)
		}
		return out
	}
	return json.Marshal(map[string]any{
		"repro_s": nulls(e.ReproWalls), "done_p50_ms": nulls(e.DoneP50), "done_p99_ms": nulls(e.DoneP99),
		"knee_hz": nulls(e.Knees), "knee_steps": e.KneeSteps, "live_job_s": nulls(e.LiveSecs),
	})
}

// reproSample times one suite pass at width nproc and checks its
// digest.
func (b *bench) reproSample(e *e2e) error {
	p, err := runReproPass(b.width, reproOrder(b.rng), nil)
	if err != nil {
		return err
	}
	b.checkDigest(p.digest, fmt.Sprintf("width-%d pass", b.width))
	e.ReproWalls = append(e.ReproWalls, p.wall.Seconds())
	return nil
}

// servePhase runs one open-loop phase and counts its submissions.
// Typed rejections are failures except in knee probes and overload
// bursts, where they are the expected outcome above the knee.
func (b *bench) servePhase(r *serveRig, name string, rate float64, dur time.Duration) *phaseResult {
	p := r.runPhase(name, b.rng.Int63(), rate, dur, b.width, name == "overload")
	b.phases = append(b.phases, p)
	rejectOK := name == "knee" || name == "overload"
	for i := range p.subs {
		s := &p.subs[i]
		b.attempt(s.out == broken || (s.out == accepted && !s.jobOK()) || (s.out == rejected && !rejectOK))
	}
	return p
}

// anchorSample runs one anchor window at the fixed anchor rate.
func (b *bench) anchorSample(r *serveRig, e *e2e) {
	p := b.servePhase(r, "anchor", anchorRate, anchorWindow)
	e.DoneP50 = append(e.DoneP50, p.Done.P50)
	e.DoneP99 = append(e.DoneP99, p.Done.P99)
}

// liveSample runs one live job and checks its bytes and chunks.
func (b *bench) liveSample(r *liveRig, e *e2e) {
	j := r.runJob()
	b.check(j.ok(r), "live job: state %s, %d chunks, %d bytes moved, err %v", j.job.State, j.job.Chunks, j.moved, j.err)
	e.LiveSecs = append(e.LiveSecs, j.seconds)
}

// finite is x for JSON, or nil (null) when x is NaN or infinite.
func finite(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return x
}

// startHeapSampler samples live heap bytes every few milliseconds until
// the returned function is called, which returns the peak.
func startHeapSampler() func() float64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		peak = math.Max(peak, float64(sample[0].Value.Uint64()))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// outPath names a file under --out for this run.
func (b *bench) outPath(kind, ext string) string {
	return filepath.Join(b.cfg.out, fmt.Sprintf("%s-%s-seed%d.%s", kind, b.cfg.workload, b.cfg.seed, ext))
}
