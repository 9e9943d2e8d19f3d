package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/live"
	"apstdv/internal/obs"
	"apstdv/internal/spec"
	"apstdv/internal/transport"
)

// The traced run prices each layer by timing calls into its public
// functions from this file. Its end-to-end parts run with the program's
// own tracing on where the program has it (the daemons' span
// collectors) and with decorators where it does not (the engine replay).

const (
	tracedRepeats  = 3 // repro passes and replay passes per width/mode
	tracedAnchor   = 2 * time.Second
	rttCalls       = 2000 // p99 with 19 samples beyond it
	codecRounds    = 20000
	parseRounds    = 300
	admitRounds    = 300
	rejectRounds   = 2000
	emitRounds     = 1 << 20
	liveProbeOps   = 8
	liveFetchCalls = 300
	overheadPairs  = 4 // untraced/traced pairs behind obs.trace_overhead_pct
)

func (b *bench) runTraced(dir string) error {
	r, err := b.setUp(dir)
	if err != nil {
		return err
	}
	defer r.close()
	log := newSpanLog()
	log.keep = true
	report := map[string]any{}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"repro", func() error { return b.traceRepro(log) }},
		{"replay", func() error { return b.traceReplay(report) }},
		{"serve", func() error { return b.traceServe(r.serve, log, report) }},
		{"live", func() error { return b.traceLive(r.live, log) }},
		{"obs", func() error { b.traceObs(log); return nil }},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("traced %s: %w", s.name, err)
		}
	}
	var missing []string
	for _, m := range perLayer {
		if _, ok := b.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("traced run did not measure %s", strings.Join(missing, ", "))
	}
	if err := log.writeJSONL(b.outPath("spans", "jsonl")); err != nil {
		return err
	}
	report["metrics"] = b.metrics
	buf, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.outPath("layers", "json"), buf, 0o644)
}

// traceRepro times every suite part at width nproc and the whole suite
// at width 1, checking every pass's digest.
func (b *bench) traceRepro(log *spanLog) error {
	parts := map[string][]float64{}
	var wide, one []float64
	for i := 0; i < tracedRepeats; i++ {
		for _, width := range []int{b.width, 1} {
			log.begin(fmt.Sprintf("parallel.pass.w%d", width))
			p, err := runReproPass(width, reproOrder(b.rng), log)
			log.end()
			if err != nil {
				return err
			}
			b.checkDigest(p.digest, fmt.Sprintf("width-%d pass", width))
			if width == 1 {
				one = append(one, p.wall.Seconds())
				continue
			}
			wide = append(wide, p.wall.Seconds())
			for id, ms := range p.partMs {
				parts[id] = append(parts[id], ms)
			}
		}
	}
	for _, part := range reproSuite {
		b.set("experiment.spec_ms."+part.id, median(parts[part.id]))
	}
	b.set("parallel.speedup", median(one)/median(wide))
	return nil
}

// traceReplay replays the fixed repro cells through engine.Execute,
// alternating undecorated and decorated passes, and checks that both
// produce identical trace reports.
func (b *bench) traceReplay(report map[string]any) error {
	cells, err := replayCells()
	if err != nil {
		return err
	}
	backends := make([]*grid.Backend, len(cells))
	for i, c := range cells {
		if backends[i], err = grid.New(c.platform, c.app, c.gcfg); err != nil {
			return err
		}
	}
	arena := engine.NewArena()
	n := float64(len(cells))
	var plainWall, decoWall, engineUs, gridUs, dlsUs, resets []float64
	var plain, deco replayStats
	var dlsCalls int
	var kept *spanLog
	for i := 0; i < tracedRepeats; i++ {
		if plain, err = replay(cells, backends, arena, nil); err != nil {
			return err
		}
		log := newSpanLog()
		log.keep = i == tracedRepeats-1
		if deco, err = replay(cells, backends, arena, log); err != nil {
			return err
		}
		b.check(sameReports(plain, deco), "decorator transparency: decorated replay's trace reports differ (pass %d)", i)
		plainWall = append(plainWall, plain.wall.Seconds())
		decoWall = append(decoWall, deco.wall.Seconds())
		resets = append(resets, plain.resetUs...)
		e, _ := log.layerSelf("engine")
		g, _ := log.layerSelf("grid")
		d, calls := log.layerSelf("dls")
		engineUs = append(engineUs, us(e)/n)
		gridUs = append(gridUs, us(g)/n)
		dlsUs = append(dlsUs, us(d)/n)
		dlsCalls = calls
		kept = log
	}
	b.set("engine.runs", n)
	b.set("engine.chunks_per_run", float64(plain.chunks)/n)
	b.set("engine.self_us_per_run", median(engineUs))
	b.set("engine.allocs_per_run", float64(plain.allocs)/n)
	b.set("dls.calls_per_run", float64(dlsCalls)/n)
	b.set("dls.self_us_per_run", median(dlsUs))
	b.set("grid.ops_per_run", float64(deco.gridOps)/n)
	b.set("grid.self_us_per_run", median(gridUs))
	b.set("grid.reset_us", median(resets))
	report["replay"] = map[string]any{
		"cells": len(cells), "plain_wall_s": plainWall, "decorated_wall_s": decoWall,
		"self_ns_by_span": kept.selfNs, "calls_by_span": kept.calls,
	}
	if b.cfg.workload == "repro" {
		b.set("obs.trace_overhead_pct", pct(median(decoWall), median(plainWall)))
	}
	return kept.writeJSONL(b.outPath("replay-spans", "jsonl"))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct is how much larger traced is than plain, in percent of plain.
func pct(traced, plain float64) float64 { return (traced - plain) / plain * 100 }

// tracePhase is servePhase as a span.
func (b *bench) tracePhase(r *serveRig, log *spanLog, name string, rate float64, dur time.Duration) *phaseResult {
	log.begin("client.phase." + name)
	defer log.end()
	return b.servePhase(r, name, rate, dur)
}

// traceServe prices the serving path: the client, transport and
// daemon-timestamp numbers come from an untraced anchor phase, the
// daemon's stage breakdown from a second anchor phase on a tracing
// daemon, and the rest from direct calls.
func (b *bench) traceServe(r *serveRig, log *spanLog, report map[string]any) error {
	f0, by0 := frames(r.cm)
	anchor := b.tracePhase(r, log, "anchor", anchorRate, tracedAnchor)
	f1, by1 := frames(r.cm)
	b.set("transport.frames_per_job", (f1-f0)/float64(anchor.Offered))
	b.set("transport.bytes_per_job", (by1-by0)/float64(anchor.Offered))
	b.set("done_p50_ms", anchor.Done.P50)
	b.set("done_p99_ms", anchor.Done.P99)
	b.set("client.submit_us.p50", anchor.Submit.P50)
	b.set("client.submit_us.p99", anchor.Submit.P99)
	var queue, run []float64
	for i := range anchor.subs {
		if j := anchor.subs[i].job; j.State == daemon.JobDone {
			queue = append(queue, ms(j.Started.Sub(j.Submitted)))
			run = append(run, ms(j.Finished.Sub(j.Started)))
		}
	}
	qd, rd := summarize(queue), summarize(run)
	b.set("daemon.queue_ms.p50", qd.P50)
	b.set("daemon.queue_ms.p99", qd.P99)
	b.set("daemon.run_ms.p50", rd.P50)

	over := b.tracePhase(r, log, "overload", overloadRate, 4*overloadWindow)
	b.set("daemon.accept_ratio", float64(over.Accepted)/float64(over.Accepted+over.Rejected))
	b.set("overload_reject_p99_ms", over.Reject.P99)

	var rtt []float64
	log.begin("transport.rtt")
	for i := 0; i < rttCalls; i++ {
		t := time.Now()
		if _, err := r.cl.Algorithms(); err != nil {
			log.end()
			return err
		}
		rtt = append(rtt, us(time.Since(t)))
	}
	log.end()
	rs := summarize(rtt)
	b.set("transport.rtt_us.p50", rs.P50)
	b.set("transport.rtt_us.p99", rs.P99)

	tr, err := startServe(b.width, true)
	if err != nil {
		return err
	}
	defer tr.close()
	if err := tr.warmUp(); err != nil {
		return err
	}
	traced := b.tracePhase(tr, log, "anchor-traced", anchorRate, tracedAnchor)
	ts, err := tr.cl.TraceStats()
	if err != nil {
		return err
	}
	stage := map[string]float64{}
	for _, s := range ts.Stages {
		stage[s.Stage] = s.P50Ms * 1e3
	}
	for _, name := range []string{"decode", "admission", "queue", "lease", "execute"} {
		v, ok := stage[name]
		b.check(ok, "daemon TraceStats has no %q stage", name)
		b.set("daemon.stage_us."+name, v)
	}
	report["serve_budget"] = b.budget(traced, stage)
	if b.cfg.workload == "serve" {
		// Alternate short untraced and traced anchor windows so both
		// sides see the same machine.
		var plain, withTrace []float64
		for i := 0; i < overheadPairs; i++ {
			plain = append(plain, b.tracePhase(r, log, "anchor", anchorRate, anchorWindow).Done.P50)
			withTrace = append(withTrace, b.tracePhase(tr, log, "anchor-traced", anchorRate, anchorWindow).Done.P50)
		}
		b.set("obs.trace_overhead_pct", pct(median(withTrace), median(plain)))
	}

	log.begin("transport.codec")
	b.traceCodec(r, anchor)
	log.end()
	log.begin("daemon.direct")
	err = b.traceDaemon(r)
	log.end()
	if err != nil {
		return err
	}
	log.begin("spec.parse")
	defer log.end()
	return b.traceParse(r)
}

func frames(m *obs.TransportMetrics) (frames, bytes float64) {
	return m.FramesSent.Value() + m.FramesRecv.Value(), m.BytesSent.Value() + m.BytesRecv.Value()
}

// budgetRow is one line of the serve layer-budget table.
type budgetRow struct {
	Part   string  `json:"part"`
	P50Us  float64 `json:"p50_us"`
	Summed bool    `json:"summed"`
}

// budget sums the p50s along one submit→done path of the traced anchor
// phase against its done p50 and prints the table with the residual.
// Decode and admission run inside the client's submit call, so they are
// shown but not summed. Medians do not add exactly, and the reply's
// trip back to the client overlaps the queue wait, so the residual is
// part of the reading, not an error.
func (b *bench) budget(p *phaseResult, stage map[string]float64) map[string]any {
	rows := []budgetRow{
		{"generator lateness", p.Late.P50 * 1e3, true},
		{"client submit call", p.Submit.P50, true},
		{"  daemon decode", stage["decode"], false},
		{"  daemon admission", stage["admission"], false},
		{"queue wait", stage["queue"], true},
		{"lease", stage["lease"], true},
		{"engine run (execute)", stage["execute"], true},
	}
	sum := 0.0
	for _, r := range rows {
		if r.Summed {
			sum += r.P50Us
		}
	}
	done := p.Done.P50 * 1e3
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "serve layer budget (traced anchor, %.0f/s, n=%d)\tp50 µs\t\n", p.Rate, p.Done.N)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t\n", r.Part, r.P50Us)
	}
	fmt.Fprintf(tw, "sum of summed parts\t%.1f\t\n", sum)
	fmt.Fprintf(tw, "submit→done p50\t%.1f\t\n", done)
	fmt.Fprintf(tw, "residual\t%.1f\t\n", done-sum)
	tw.Flush()
	return map[string]any{"rows": rows, "sum_us": sum, "done_p50_us": done, "residual_us": done - sum}
}

// traceCodec times AppendWire+DecodeWire round trips of a submit
// request and of a finished job's status reply.
func (b *bench) traceCodec(r *serveRig, anchor *phaseResult) {
	args := daemon.SubmitArgs{TaskXML: r.specs[0], SimApp: &serveApp, TraceID: 1, ParentSpan: 2}
	var job daemon.StatusReply
	for i := range anchor.subs {
		if anchor.subs[i].job.State == daemon.JobDone {
			job.Job = anchor.subs[i].job
			break
		}
	}
	round := func(enc func([]byte) []byte, dec func(*transport.Dec)) float64 {
		var buf []byte
		var ns []float64
		for k := 0; k < 5; k++ {
			t := time.Now()
			for i := 0; i < codecRounds/5; i++ {
				buf = enc(buf[:0])
				dec(transport.NewDec(buf))
			}
			ns = append(ns, float64(time.Since(t))/float64(codecRounds/5))
		}
		return median(ns)
	}
	b.set("transport.codec_ns.submit", round(args.AppendWire, func(d *transport.Dec) {
		var a daemon.SubmitArgs
		a.DecodeWire(d)
	}))
	b.set("transport.codec_ns.job", round(job.AppendWire, func(d *transport.Dec) {
		var j daemon.StatusReply
		j.DecodeWire(d)
	}))
}

// traceDaemon calls Submit directly on an unserved daemon: first on an
// idle one (each job finishes before the next submission), then on a
// draining one, where every submission takes the fast-reject path.
func (b *bench) traceDaemon(r *serveRig) error {
	d, err := daemon.New(serveConfig())
	if err != nil {
		return err
	}
	var accept, reject []float64
	for i := 0; i < admitRounds; i++ {
		var rep daemon.SubmitReply
		t := time.Now()
		err := d.Submit(daemon.SubmitArgs{TaskXML: r.specs[i%len(r.specs)], SimApp: &serveApp}, &rep)
		accept = append(accept, us(time.Since(t)))
		b.attempt(err != nil)
		d.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return err
	}
	for i := 0; i < rejectRounds; i++ {
		var rep daemon.SubmitReply
		t := time.Now()
		err := d.Submit(daemon.SubmitArgs{TaskXML: r.specs[0], SimApp: &serveApp}, &rep)
		reject = append(reject, us(time.Since(t)))
		b.check(err != nil, "submit to a draining daemon was accepted")
	}
	b.set("daemon.accept_us", summarize(accept).P50)
	b.set("daemon.reject_us", summarize(reject).P50)
	return nil
}

// traceParse times spec.Parse on every distinct spec the workloads
// submit.
func (b *bench) traceParse(r *serveRig) error {
	specs := map[string]string{"live": liveSpec()}
	for i, m := range jobMix {
		specs[fmt.Sprintf("s%d", m.load)] = r.specs[i]
	}
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var t []float64
		for i := 0; i < parseRounds; i++ {
			t0 := time.Now()
			if _, err := spec.Parse(strings.NewReader(specs[n])); err != nil {
				return fmt.Errorf("parse %s spec: %w", n, err)
			}
			t = append(t, us(time.Since(t0)))
		}
		b.set("spec.parse_us."+n, median(t))
	}
	return nil
}

// traceLive prices the live layer through the backend's public
// operations against the rig's workers, plus the chunk count of a
// daemon-driven job.
func (b *bench) traceLive(r *liveRig, log *spanLog) error {
	log.begin("live.job")
	j := r.runJob()
	log.end()
	b.check(j.ok(r), "live job: state %s, %d chunks, %d bytes moved, err %v", j.job.State, j.job.Chunks, j.moved, j.err)
	b.set("live.chunks_per_job", float64(j.job.Chunks))

	be, err := live.Dial(r.conns)
	if err != nil {
		return err
	}
	defer be.Close()
	chunk := float64(liveInputBytes / (liveChunksPerWorker * len(r.svcs)))
	op := func(name string, n int, call func(w int, done func(start, end float64, err error))) ([]float64, error) {
		var secs []float64
		for i := 0; i < n; i++ {
			ch := make(chan error, 1)
			log.begin(name)
			t := time.Now()
			call(i%len(r.svcs), func(_, _ float64, err error) { ch <- err })
			err := <-ch
			secs = append(secs, time.Since(t).Seconds())
			log.end()
			if err != nil {
				return nil, err
			}
		}
		return secs, nil
	}
	store, err := op("live.store", liveProbeOps, func(w int, done func(float64, float64, error)) { be.Transfer(w, chunk, done) })
	if err != nil {
		return err
	}
	compute, err := op("live.compute", liveProbeOps, func(w int, done func(float64, float64, error)) { be.Execute(w, chunk, false, done) })
	if err != nil {
		return err
	}
	fetch, err := op("live.fetch", liveFetchCalls, func(w int, done func(float64, float64, error)) { be.ReturnOutput(w, 0, done) })
	if err != nil {
		return err
	}
	be.Stop()
	be.Run()
	b.set("live.store_mb_per_s", chunk/1e6/median(store))
	b.set("live.compute_us_per_unit", median(compute)*1e6/chunk)
	b.set("live.fetch_us", median(fetch)*1e6)

	if b.cfg.workload != "live" {
		return nil
	}
	tr, err := r.sharing(true)
	if err != nil {
		return err
	}
	defer tr.close()
	var plain, traced []float64
	for i := 0; i < 2*overheadPairs; i++ {
		for _, rig := range []*liveRig{r, tr} {
			j := rig.runJob()
			b.check(j.ok(rig), "live job: state %s, %d chunks, %d bytes moved, err %v", j.job.State, j.job.Chunks, j.moved, j.err)
			if rig == r {
				plain = append(plain, j.seconds)
			} else {
				traced = append(traced, j.seconds)
			}
		}
	}
	b.set("obs.trace_overhead_pct", pct(median(traced), median(plain)))
	return nil
}

// traceObs times the event ring's emit path.
func (b *bench) traceObs(log *spanLog) {
	ring := obs.NewRing(8192)
	ev := obs.Event{Type: obs.ChunkDone, Worker: 3, Chunk: 7, Size: 12.5, Bytes: 1e6,
		SendStart: 1, SendEnd: 2, CompStart: 2, CompEnd: 5, OutputEnd: 5.5}
	log.begin("obs.emit")
	var ns []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		for i := 0; i < emitRounds/5; i++ {
			ev.Seq = int64(i)
			ring.EmitPtr(&ev)
		}
		ns = append(ns, float64(time.Since(t))/float64(emitRounds/5))
	}
	log.end()
	b.set("obs.emit_ns", median(ns))
}
