package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/errcode"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/transport"
	"apstdv/internal/workload"
)

// The serving daemon's fixed shape: a sim-mode daemon on sixteen DAS-2
// nodes with one job slot and a queue holding several latency limits'
// worth of work at the knee, so that tail latency, not rejection, marks
// the knee.
const (
	serveSlots      = 1
	serveQueueDepth = 1024
	// serveRetain keeps terminal jobs visible long enough for the
	// completion tracker (polling every millisecond) to read them.
	serveRetain  = 1024
	latencyLimit = 50 * time.Millisecond
	// anchorRate is the fixed offered load of the anchor phase, about
	// half the knee on a 2-core x86 box. It is a constant so that
	// done_p50_ms and done_p99_ms compare like with like across commits.
	anchorRate = 2800.0
	// overloadRate is the overload bursts' offered load: three times
	// the knee on a 2-core x86 box (twice the anchor rate).
	overloadRate = 3 * 2 * anchorRate
	// A phase is invalid when the generator fell behind its schedule:
	// half its sends later than maxLateP50, or a hundredth later than
	// the latency limit. The box's own stalls of a few milliseconds
	// reach the p99 without the generator being behind.
	maxLateP50 = time.Millisecond
	trackPoll  = time.Millisecond
	shedAfter  = 250 * time.Microsecond
	drainLimit = 10 * time.Second
	// The knee search: geometric bisection to kneeResolution, each probe
	// at least kneeMinStep long.
	kneeResolution = 0.04
	kneeMaxSteps   = 10
	kneeMinStep    = 800 * time.Millisecond
	overloadWindow = 600 * time.Millisecond
)

// serveApp is every sim job's ground truth: γ = 0 and the daemon's fixed
// seed make each job size's makespan deterministic.
var serveApp = daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000, Gamma: 0}

// jobMix is the seeded job-size mix: mostly 8-unit jobs, plus three
// other sizes so several distinct specs reach the daemon's parse cache.
var jobMix = []struct {
	load   int
	weight float64
}{{8, 0.7}, {4, 0.1}, {12, 0.1}, {16, 0.1}}

// serveRef is each job size's chunk count and simulated makespan
// (seconds), as produced by the daemon at the commit that introduced
// this benchmark.
var serveRef = map[int]struct {
	chunks   int
	makespan float64
}{
	4:  {20, 231.90243478260874},
	8:  {24, 257.5548695652174},
	12: {28, 283.20730434782615},
	16: {32, 308.8597391304349},
}

// serveSpec is a job of load work units needing no files: the
// callback method with a declared load, scheduled by Fixed-RUMR (the
// daemon's default and the paper's recommendation), whose probing round
// and multi-round plan make the engine's share of a job about 0.1 ms.
func serveSpec(load int) string {
	return fmt.Sprintf(`<task executable="bench" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="%d" algorithm="fixed-rumr"/>
</task>`, load)
}

// serveRig is an in-process sim daemon serving the frame transport on
// loopback, plus one client whose connection count is the sender count.
type serveRig struct {
	d     *daemon.Daemon
	srv   *transport.Server
	cl    *client.Client
	cm    *obs.TransportMetrics // client-side frame and byte counters
	specs []string              // task XML per jobMix entry
}

// serveConfig is the serving daemon's configuration.
func serveConfig() daemon.Config {
	return daemon.Config{
		Mode: daemon.ModeSim, Platform: workload.DAS2(16), Seed: 1,
		MaxConcurrentJobs: serveSlots, QueueDepth: serveQueueDepth, RetainJobs: serveRetain,
	}
}

func startServe(conns int, traced bool) (*serveRig, error) {
	r := &serveRig{cm: obs.NewTransportMetrics(obs.NewRegistry(), "client")}
	for _, m := range jobMix {
		r.specs = append(r.specs, serveSpec(m.load))
	}
	cfg := serveConfig()
	opts := client.Options{Conns: conns, Metrics: r.cm}
	if traced {
		cfg.Trace = otrace.New(0)
		opts.Tracer = otrace.New(0)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.d = d
	r.srv = d.NewFrameServer(transport.ServerConfig{})
	go r.srv.Serve(ln)
	r.cl, err = client.DialOptions(ln.Addr().String(), opts)
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *serveRig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.d.Shutdown(ctx)
	r.srv.Close()
}

// outcome classifies one submission's reply.
type outcome uint8

const (
	pending  outcome = iota
	accepted         // admitted; the tracker fills in the job's fate
	rejected         // typed daemon or transport rejection
	broken           // untyped error: transport breakage, timeout
	shedded          // never sent: no sender was idle when it was due
)

// submission is one scheduled arrival and everything observed about it.
// Times are wall clock; the daemon shares the process, so its job
// timestamps are on the same clock.
type submission struct {
	due, sent, replied time.Time
	mix                int // jobMix index
	out                outcome
	id                 int
	job                daemon.Job // terminal snapshot (accepted only)
	lost               bool       // evicted or still running at the drain limit
}

// doneLatency is submit→done timed from the scheduled arrival, so a
// stalled sender inflates it instead of hiding the stall.
func (s *submission) doneLatency() time.Duration { return s.job.Finished.Sub(s.due) }

// rejectLatency is scheduled arrival → typed rejection.
func (s *submission) rejectLatency() time.Duration { return s.replied.Sub(s.due) }

// schedule draws a Poisson arrival process at rate over dur, each
// arrival tagged with a job size from jobMix.
func schedule(seed int64, rate float64, dur time.Duration) []submission {
	rng := rand.New(rand.NewSource(seed))
	var subs []submission
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return subs
		}
		subs = append(subs, submission{due: time.Time{}.Add(t), mix: pickMix(rng.Float64())})
	}
}

func pickMix(u float64) int {
	for i, m := range jobMix {
		if u < m.weight {
			return i
		}
		u -= m.weight
	}
	return 0
}

// phaseResult is one open-loop phase at one offered rate.
type phaseResult struct {
	Name     string  `json:"name"`
	Rate     float64 `json:"offered_hz"`
	Window   float64 `json:"window_s"`
	Offered  int     `json:"offered"`
	Accepted int     `json:"accepted"`
	Rejected int     `json:"rejected"`
	Failed   int     `json:"failed"`
	Shed     int     `json:"shed"`
	// Done is submit→done (ms) over accepted jobs; Reject is arrival →
	// typed rejection (ms); Submit is the client call alone (µs);
	// Late is how far behind schedule each send started (ms).
	Done   dist `json:"done_ms"`
	Reject dist `json:"reject_ms"`
	Submit dist `json:"submit_us"`
	Late   dist `json:"late_ms"`
	// CompletedHz is jobs finished inside the window per second.
	CompletedHz float64 `json:"completed_hz"`
	Backlog     bool    `json:"backlog_growing"`
	// Valid is false when the generator fell behind its schedule.
	Valid bool `json:"valid"`
	// Seen is the share of submissions whose spec had been submitted
	// before (parse-cache candidates).
	Seen float64 `json:"spec_seen_share"`

	subs []submission
}

// meetsLimit reports whether the phase sustained its rate: every
// submission accepted and completed, p99 submit→done within the limit,
// and no growing backlog. Lateness needs no test of its own: latency
// is timed from the due time, so a generator that fell behind fails
// the p99 limit.
func (p *phaseResult) meetsLimit() bool {
	return p.Rejected == 0 && p.Failed == 0 && !p.Backlog &&
		p.Done.N == p.Offered && !math.IsNaN(p.Done.P99) && p.Done.P99 <= ms(latencyLimit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPhase offers rate for dur from `senders` goroutines, each doing one
// synchronous Submit at a time, then waits for every accepted job to
// finish. A separate goroutine reads job states from the in-process
// daemon (no I/O) to learn each job's Finished time.
//
// Each sender sleeps until its next arrival is due and sends it. Without
// shedding an arrival is sent however late, so a stall shows as
// lateness. With shedding (the overload step) an arrival a sender
// reaches more than shedAfter past its due time is shed instead, as
// cmd/loadgen sheds arrivals beyond its outstanding cap: the senders
// then send only on time, and the step measures the daemon's answers
// rather than the generator's backlog. Shed arrivals are counted and
// make the phase invalid.
func (r *serveRig) runPhase(name string, seed int64, rate float64, dur time.Duration, senders int, shed bool) *phaseResult {
	subs := schedule(seed, rate, dur)
	res := &phaseResult{Name: name, Rate: rate, Window: dur.Seconds(), Offered: len(subs), subs: subs}
	if len(subs) == 0 {
		return res
	}
	start := time.Now().Add(2 * time.Millisecond)
	for i := range subs {
		subs[i].due = start.Add(subs[i].due.Sub(time.Time{}))
	}

	// Sized to the number of sends: senders never block on the tracker.
	track := make(chan int, len(subs))
	var trackWG sync.WaitGroup
	trackWG.Add(1)
	go func() {
		defer trackWG.Done()
		r.track(subs, track, start.Add(dur+drainLimit))
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				sleepUntil(subs[i].due)
				if shed && time.Since(subs[i].due) > shedAfter {
					subs[i].out = shedded
					continue
				}
				r.submit(subs, i, track)
			}
		}()
	}
	wg.Wait()
	close(track)
	trackWG.Wait()
	res.summarize(start, dur)
	return res
}

// submit sends arrival i now and records the reply; accepted jobs go to
// the tracker.
func (r *serveRig) submit(subs []submission, i int, track chan<- int) {
	s := &subs[i]
	s.sent = time.Now()
	reply, err := r.cl.Submit(r.specs[s.mix], "", "", &serveApp)
	s.replied = time.Now()
	switch {
	case err == nil:
		s.out, s.id = accepted, reply.JobID
		track <- i
	case errcode.Code(err) != "":
		s.out = rejected
	default:
		s.out = broken
	}
}

// sleepUntil blocks the calling thread until t. It uses nanosleep
// rather than a runtime timer, whose wake-ups land up to a millisecond
// late on Linux; callers lock their goroutine to its thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// track reads the final state of every accepted job from the daemon
// until all are terminal or the deadline passes; jobs still unresolved
// are lost. Jobs finish in admission order (one slot, FIFO queue), so
// each poll walks the open jobs oldest first and stops at the first one
// still queued or running: the tracker's cost stays proportional to
// completions and it never competes with admission for the daemon's
// lock. Finished times come from the daemon, so polling late never
// skews a latency.
func (r *serveRig) track(subs []submission, in <-chan int, deadline time.Time) {
	var open []int // indexes into subs, by ascending job id
	tick := time.NewTicker(trackPoll)
	defer tick.Stop()
	closed := false
	for !closed || len(open) > 0 {
		if closed {
			<-tick.C
		} else {
			select {
			case i, ok := <-in:
				if !ok {
					closed = true
					continue
				}
				k := len(open)
				open = append(open, i)
				for ; k > 0 && subs[open[k-1]].id > subs[i].id; k-- {
					open[k] = open[k-1]
				}
				open[k] = i
				continue
			case <-tick.C:
			}
		}
		done := 0
		for _, i := range open {
			var rep daemon.StatusReply
			err := r.d.Status(daemon.StatusArgs{JobID: subs[i].id}, &rep)
			if errors.Is(err, daemon.ErrJobNotFound) {
				subs[i].lost = true
			} else if err != nil || rep.Job.State == daemon.JobQueued || rep.Job.State == daemon.JobRunning {
				break
			} else {
				subs[i].job = rep.Job
			}
			done++
		}
		open = open[done:]
		if time.Now().After(deadline) {
			for _, i := range open {
				subs[i].lost = true
			}
			return
		}
	}
}

// jobOK checks an accepted job's fate against its spec: done, with the
// reference chunk count and makespan for its size.
func (s *submission) jobOK() bool {
	if s.lost || s.job.State != daemon.JobDone {
		return false
	}
	want := serveRef[jobMix[s.mix].load]
	return s.job.Chunks == want.chunks && s.job.Makespan == want.makespan
}

func (p *phaseResult) summarize(start time.Time, dur time.Duration) {
	end := start.Add(dur)
	var done, sub, late []float64
	seen := make(map[int]bool)
	nSeen := 0
	completed := 0
	for i := range p.subs {
		s := &p.subs[i]
		if seen[s.mix] {
			nSeen++
		}
		seen[s.mix] = true
		if s.out == shedded {
			p.Shed++
			continue
		}
		late = append(late, ms(s.sent.Sub(s.due)))
		sub = append(sub, float64(s.replied.Sub(s.sent))/float64(time.Microsecond))
		switch s.out {
		case accepted:
			p.Accepted++
			if !s.jobOK() {
				p.Failed++
				continue
			}
			done = append(done, ms(s.doneLatency()))
			if !s.job.Finished.After(end) {
				completed++
			}
		case rejected:
			p.Rejected++
		default:
			p.Failed++
		}
	}
	p.Done, p.Reject, p.Submit, p.Late = summarize(done), summarize(p.rejectMs()), summarize(sub), summarize(late)
	p.CompletedHz = float64(completed) / dur.Seconds()
	p.Seen = float64(nSeen) / float64(len(p.subs))
	// NaN percentiles (too few samples) count as on time.
	p.Valid = p.Shed == 0 && !(p.Late.P50 > ms(maxLateP50)) && !(p.Late.P99 > ms(latencyLimit))
	p.Backlog = backlogGrowing(p.subs, start, dur, p.Rate)
}

// rejectMs lists arrival → typed rejection times (ms).
func (p *phaseResult) rejectMs() []float64 {
	var xs []float64
	for i := range p.subs {
		if s := &p.subs[i]; s.out == rejected {
			xs = append(xs, ms(s.rejectLatency()))
		}
	}
	return xs
}

// backlogGrowing compares the number of accepted, unfinished jobs at the
// window's midpoint and end: a backlog that grew by more than a latency
// limit's worth of arrivals means the daemon is not keeping up.
func backlogGrowing(subs []submission, start time.Time, dur time.Duration, rate float64) bool {
	inSystem := func(t time.Time) int {
		n := 0
		for i := range subs {
			s := &subs[i]
			if s.out != accepted || s.replied.After(t) {
				continue
			}
			if s.lost || s.job.Finished.IsZero() || s.job.Finished.After(t) {
				n++
			}
		}
		return n
	}
	mid, end := inSystem(start.Add(dur/2)), inSystem(start.Add(dur))
	return float64(end-mid) > rate*latencyLimit.Seconds()/2
}

// kneeStep records one probe of the knee search.
type kneeStep struct {
	Rate float64 `json:"offered_hz"`
	Pass bool    `json:"pass"`
}

// kneeSearch finds the highest rate that passes, one probe at a time so
// a run can spread its probes over its length. From start it doubles or
// halves until one passing and one failing rate bracket the knee, then
// bisects geometrically until they are within resolution (a ratio, e.g.
// 0.04) or maxSteps probes have run.
type kneeSearch struct {
	start, resolution float64
	maxSteps          int
	lo, hi            float64 // highest pass, lowest fail; 0 = none yet
	Steps             []kneeStep
}

func newKneeSearch(start, resolution float64, maxSteps int) *kneeSearch {
	return &kneeSearch{start: start, resolution: resolution, maxSteps: maxSteps}
}

// next returns the rate to probe next, or false when the search is done.
func (k *kneeSearch) next() (float64, bool) {
	if len(k.Steps) >= k.maxSteps || (k.lo > 0 && k.hi > 0 && k.hi/k.lo <= 1+k.resolution) {
		return 0, false
	}
	switch {
	case k.lo == 0 && k.hi == 0:
		return k.start, true
	case k.hi == 0:
		return 2 * k.lo, true
	case k.lo == 0:
		return k.hi / 2, true
	}
	return math.Sqrt(k.lo * k.hi), true
}

// record reports the outcome of probing rate.
func (k *kneeSearch) record(rate float64, pass bool) {
	k.Steps = append(k.Steps, kneeStep{Rate: rate, Pass: pass})
	if pass {
		k.lo = rate
	} else {
		k.hi = rate
	}
}

// knee is the highest rate that passed, 0 when none did.
func (k *kneeSearch) knee() float64 { return k.lo }

// stepWindow sizes a knee probe so its p99 rests on at least 1200
// samples, and never shorter than kneeMinStep.
func stepWindow(rate float64) time.Duration {
	return max(kneeMinStep, time.Duration(1200/rate*float64(time.Second)))
}

// warmUp submits every spec a few times and waits for the jobs, so the
// parse cache, connection pool and runtime are warm before timing.
func (r *serveRig) warmUp() error {
	p := r.runPhase("warmup", 0, 500, 400*time.Millisecond, 1, false)
	if p.Failed > 0 || p.Rejected > 0 {
		return fmt.Errorf("serve warm-up: %d failed, %d rejected of %d", p.Failed, p.Rejected, p.Offered)
	}
	return nil
}
