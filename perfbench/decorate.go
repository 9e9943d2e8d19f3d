package main

import (
	"apstdv/internal/dls"
	"apstdv/internal/engine"
)

// The decorators below time every call the engine makes into a backend
// or an algorithm, and every callback the backend makes into the engine,
// as spans in a spanLog. The engine picks its code path by asserting
// optional interfaces, so a decorator must implement exactly the
// optional interfaces of the value it wraps: each combination gets its
// own composite type, assembled from one mixin per interface.

// tracedBackend forwards engine.Backend. Span names: grid.* for time in
// the backend, engine.callback for completions the backend delivers.
type tracedBackend struct {
	b   engine.Backend
	log *spanLog
	ops int // data-moving and compute operations issued
}

func (t *tracedBackend) Now() float64 { return t.b.Now() }
func (t *tracedBackend) Workers() int { return t.b.Workers() }

func (t *tracedBackend) Run() {
	t.log.begin("grid.run")
	t.b.Run()
	t.log.end()
}

func (t *tracedBackend) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	t.ops++
	t.log.begin("grid.transfer")
	t.b.Transfer(w, bytes, t.wrap(done))
	t.log.end()
}

func (t *tracedBackend) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
	t.ops++
	t.log.begin("grid.execute")
	t.b.Execute(w, size, probe, t.wrap(done))
	t.log.end()
}

func (t *tracedBackend) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	t.ops++
	t.log.begin("grid.return")
	t.b.ReturnOutput(w, bytes, t.wrap(done))
	t.log.end()
}

func (t *tracedBackend) wrap(done func(start, end float64, err error)) func(start, end float64, err error) {
	return func(start, end float64, err error) {
		t.log.begin("engine.callback")
		done(start, end, err)
		t.log.end()
	}
}

func (t *tracedBackend) wrapOp(done func(op uint64, start, end float64, err error)) func(op uint64, start, end float64, err error) {
	return func(op uint64, start, end float64, err error) {
		t.log.begin("engine.callback")
		done(op, start, end, err)
		t.log.end()
	}
}

type opMixin struct{ t *tracedBackend }

func (m opMixin) TransferOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	m.t.ops++
	m.t.log.begin("grid.transfer")
	m.t.b.(engine.OpBackend).TransferOp(w, bytes, op, m.t.wrapOp(done))
	m.t.log.end()
}

func (m opMixin) ExecuteOp(w int, size float64, probe bool, op uint64, done func(op uint64, start, end float64, err error)) {
	m.t.ops++
	m.t.log.begin("grid.execute")
	m.t.b.(engine.OpBackend).ExecuteOp(w, size, probe, op, m.t.wrapOp(done))
	m.t.log.end()
}

func (m opMixin) ReturnOutputOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	m.t.ops++
	m.t.log.begin("grid.return")
	m.t.b.(engine.OpBackend).ReturnOutputOp(w, bytes, op, m.t.wrapOp(done))
	m.t.log.end()
}

type peerMixin struct{ t *tracedBackend }

func (m peerMixin) PeerTransferOp(from, to int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	m.t.ops++
	m.t.log.begin("grid.peer")
	m.t.b.(engine.PeerBackend).PeerTransferOp(from, to, bytes, op, m.t.wrapOp(done))
	m.t.log.end()
}

type timerMixin struct{ t *tracedBackend }

func (m timerMixin) AfterFunc(d float64, fn func(id engine.TimerID)) engine.TimerID {
	m.t.log.begin("grid.timer")
	defer m.t.log.end()
	return m.t.b.(engine.Timer).AfterFunc(d, func(id engine.TimerID) {
		m.t.log.begin("engine.callback")
		fn(id)
		m.t.log.end()
	})
}

func (m timerMixin) CancelTimer(id engine.TimerID) {
	m.t.log.begin("grid.timer")
	m.t.b.(engine.Timer).CancelTimer(id)
	m.t.log.end()
}

type stopMixin struct{ t *tracedBackend }

func (m stopMixin) Stop() {
	m.t.log.begin("grid.stop")
	m.t.b.(engine.Stopper).Stop()
	m.t.log.end()
}

// decorateBackend wraps b so that the result implements the same
// optional engine interfaces b does, and no others.
func decorateBackend(b engine.Backend, log *spanLog) (engine.Backend, *tracedBackend) {
	t := &tracedBackend{b: b, log: log}
	var mask int
	if _, ok := b.(engine.OpBackend); ok {
		mask |= 1
	}
	if _, ok := b.(engine.PeerBackend); ok {
		mask |= 2
	}
	if _, ok := b.(engine.Timer); ok {
		mask |= 4
	}
	if _, ok := b.(engine.Stopper); ok {
		mask |= 8
	}
	o, p, tm, s := opMixin{t}, peerMixin{t}, timerMixin{t}, stopMixin{t}
	type T = *tracedBackend
	var d engine.Backend
	switch mask {
	case 0:
		d = t
	case 1:
		d = struct {
			T
			opMixin
		}{t, o}
	case 2:
		d = struct {
			T
			peerMixin
		}{t, p}
	case 3:
		d = struct {
			T
			opMixin
			peerMixin
		}{t, o, p}
	case 4:
		d = struct {
			T
			timerMixin
		}{t, tm}
	case 5:
		d = struct {
			T
			opMixin
			timerMixin
		}{t, o, tm}
	case 6:
		d = struct {
			T
			peerMixin
			timerMixin
		}{t, p, tm}
	case 7:
		d = struct {
			T
			opMixin
			peerMixin
			timerMixin
		}{t, o, p, tm}
	case 8:
		d = struct {
			T
			stopMixin
		}{t, s}
	case 9:
		d = struct {
			T
			opMixin
			stopMixin
		}{t, o, s}
	case 10:
		d = struct {
			T
			peerMixin
			stopMixin
		}{t, p, s}
	case 11:
		d = struct {
			T
			opMixin
			peerMixin
			stopMixin
		}{t, o, p, s}
	case 12:
		d = struct {
			T
			timerMixin
			stopMixin
		}{t, tm, s}
	case 13:
		d = struct {
			T
			opMixin
			timerMixin
			stopMixin
		}{t, o, tm, s}
	case 14:
		d = struct {
			T
			peerMixin
			timerMixin
			stopMixin
		}{t, p, tm, s}
	default:
		d = struct {
			T
			opMixin
			peerMixin
			timerMixin
			stopMixin
		}{t, o, p, tm, s}
	}
	return d, t
}

// tracedAlg forwards dls.Algorithm, timing each call as a dls.* span.
type tracedAlg struct {
	a   dls.Algorithm
	log *spanLog
}

func (t *tracedAlg) Name() string { return t.a.Name() }

func (t *tracedAlg) UsesProbing() bool { return t.a.UsesProbing() }

func (t *tracedAlg) Plan(p dls.Plan) error {
	t.log.begin("dls.plan")
	defer t.log.end()
	return t.a.Plan(p)
}

func (t *tracedAlg) Next(s dls.State) (dls.Decision, bool) {
	t.log.begin("dls.next")
	defer t.log.end()
	return t.a.Next(s)
}

func (t *tracedAlg) Dispatched(worker int, requested, actual float64) {
	t.log.begin("dls.dispatched")
	t.a.Dispatched(worker, requested, actual)
	t.log.end()
}

func (t *tracedAlg) Observe(o dls.Observation) {
	t.log.begin("dls.observe")
	t.a.Observe(o)
	t.log.end()
}

type recalMixin struct{ t *tracedAlg }

func (m recalMixin) Recalibrate(worker int, commLatency, compLatency float64) {
	m.t.log.begin("dls.recalibrate")
	m.t.a.(dls.Recalibrator).Recalibrate(worker, commLatency, compLatency)
	m.t.log.end()
}

type lossMixin struct{ t *tracedAlg }

func (m lossMixin) WorkerLost(worker int, returnedLoad float64) {
	m.t.log.begin("dls.worker_lost")
	m.t.a.(dls.WorkerLossAware).WorkerLost(worker, returnedLoad)
	m.t.log.end()
}

// redistMixin covers RedistributionAware, which embeds WorkerLossAware.
type redistMixin struct{ lossMixin }

func (m redistMixin) ChunkRedistributed(from, to int, load float64) {
	m.t.log.begin("dls.redistributed")
	m.t.a.(dls.RedistributionAware).ChunkRedistributed(from, to, load)
	m.t.log.end()
}

type switchMixin struct{ t *tracedAlg }

func (m switchMixin) DrainSwitchDecisions() []dls.SwitchDecision {
	m.t.log.begin("dls.drain_switch")
	defer m.t.log.end()
	return m.t.a.(dls.SwitchObservable).DrainSwitchDecisions()
}

// decorateAlg wraps a so that the result implements the same optional
// dls interfaces a does, and no others.
func decorateAlg(a dls.Algorithm, log *spanLog) dls.Algorithm {
	t := &tracedAlg{a: a, log: log}
	var mask int
	if _, ok := a.(dls.Recalibrator); ok {
		mask |= 1
	}
	if _, ok := a.(dls.WorkerLossAware); ok {
		mask |= 2
	}
	if _, ok := a.(dls.RedistributionAware); ok {
		mask |= 4
	}
	if _, ok := a.(dls.SwitchObservable); ok {
		mask |= 8
	}
	rc, lo, sw := recalMixin{t}, lossMixin{t}, switchMixin{t}
	rd := redistMixin{lo}
	type T = *tracedAlg
	switch mask &^ 2 {
	case 0:
		if mask&2 == 0 {
			return t
		}
		return struct {
			T
			lossMixin
		}{t, lo}
	case 1:
		if mask&2 == 0 {
			return struct {
				T
				recalMixin
			}{t, rc}
		}
		return struct {
			T
			recalMixin
			lossMixin
		}{t, rc, lo}
	case 4:
		return struct {
			T
			redistMixin
		}{t, rd}
	case 5:
		return struct {
			T
			recalMixin
			redistMixin
		}{t, rc, rd}
	case 8:
		if mask&2 == 0 {
			return struct {
				T
				switchMixin
			}{t, sw}
		}
		return struct {
			T
			lossMixin
			switchMixin
		}{t, lo, sw}
	case 9:
		if mask&2 == 0 {
			return struct {
				T
				recalMixin
				switchMixin
			}{t, rc, sw}
		}
		return struct {
			T
			recalMixin
			lossMixin
			switchMixin
		}{t, rc, lo, sw}
	case 12:
		return struct {
			T
			redistMixin
			switchMixin
		}{t, rd, sw}
	default:
		return struct {
			T
			recalMixin
			redistMixin
			switchMixin
		}{t, rc, rd, sw}
	}
}
