package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/experiment"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// replayCell is one repro run replayed directly through engine.Execute,
// so the benchmark can wrap the backend and the algorithm.
type replayCell struct {
	name     string
	platform *model.Platform
	app      *model.Application
	alg      func() dls.Algorithm
	probe    float64
	gcfg     grid.Config
	retry    *engine.RetryPolicy
}

// replayCells returns the fixed replay set: run 0 of every algorithm at
// the highest γ of each figure and of the case study, every algorithm
// under the failure sweep's 25% crash rate, and RUMR's peer
// redistribution on the star and tree platforms at a 50% crash rate.
// Crash windows are timed against an undecorated fault-free run, as the
// sweeps do.
func replayCells() ([]replayCell, error) {
	var cells []replayCell
	paper := dls.PaperSet()
	for _, s := range experiment.All() {
		gamma := s.Gammas[len(s.Gammas)-1]
		for ai := range paper {
			ai := ai
			cells = append(cells, replayCell{
				name: fmt.Sprintf("%s/%s", s.ID, paper[ai].Name()), platform: s.Platform,
				app: s.App(gamma), alg: func() dls.Algorithm { return dls.PaperSet()[ai] },
				probe: s.ProbeLoad, gcfg: grid.Config{Seed: s.Seed},
			})
		}
	}
	const probe = 200 // the §4 probe load the sweeps use
	crashed := func(name string, p *model.Platform, alg func() dls.Algorithm, prob float64, retry *engine.RetryPolicy) (replayCell, error) {
		c := replayCell{name: name, platform: p, app: workload.Synthetic(0.10), alg: alg, probe: probe,
			gcfg: grid.Config{Seed: 17}, retry: retry}
		b, err := grid.New(c.platform, c.app, c.gcfg)
		if err != nil {
			return c, err
		}
		tr, _, err := c.execute(b, nil, nil)
		if err != nil {
			return c, err
		}
		m := tr.Makespan()
		c.gcfg.Faults = grid.RandomCrashPlan(17, len(p.Workers), prob, 0.15*m, 0.60*m)
		return c, nil
	}
	for ai := range paper {
		ai := ai
		c, err := crashed("failures/"+paper[ai].Name(), workload.DAS2(16),
			func() dls.Algorithm { return dls.PaperSet()[ai] }, 0.25, &engine.RetryPolicy{})
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	for _, p := range []struct {
		name string
		p    *model.Platform
	}{{"star", workload.Mixed(8, 8)}, {"tree", workload.WithTreeTopology(workload.Mixed(8, 8))}} {
		c, err := crashed("redistrib/"+p.name, p.p, func() dls.Algorithm { return dls.NewRUMR() },
			0.5, &engine.RetryPolicy{Redistribute: true})
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// execute runs the cell on b, decorated when log is non-nil, and
// returns the trace and the number of backend operations the engine
// issued (counted only when decorated). A run that loses every worker
// still returns its trace: the sweeps count such runs as data points,
// and so does the replay.
func (c *replayCell) execute(b *grid.Backend, arena *engine.Arena, log *spanLog) (*trace.Trace, int, error) {
	var backend engine.Backend = b
	var tb *tracedBackend
	alg := c.alg()
	if log != nil {
		backend, tb = decorateBackend(b, log)
		alg = decorateAlg(alg, log)
		log.begin("engine.execute")
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: backend, Algorithm: alg, App: c.app, Platform: c.platform,
		Config: engine.Config{ProbeLoad: c.probe, Retry: c.retry}, Arena: arena,
	})
	ops := 0
	if log != nil {
		log.end()
		ops = tb.ops
	}
	if err != nil && tr == nil {
		return nil, ops, err
	}
	return tr, ops, nil
}

// replayStats is what one replay pass measured.
type replayStats struct {
	chunks    int
	wall      time.Duration // Execute calls only
	resetUs   []float64     // one grid Reset per cell
	allocs    uint64
	gridOps   int
	reports   []trace.Report
	makespans []float64
}

// replay runs every cell once. Each cell gets its own backend, reset in
// place before the timed run as the experiment runner's pool slots do;
// one engine arena serves the whole pass. With log non-nil, backend and
// algorithm are decorated and every call is a span.
func replay(cells []replayCell, backends []*grid.Backend, arena *engine.Arena, log *spanLog) (replayStats, error) {
	var st replayStats
	var m0, m1 runtime.MemStats
	for i := range cells {
		c := &cells[i]
		t := time.Now()
		if err := backends[i].Reset(c.app, c.gcfg); err != nil {
			return st, err
		}
		st.resetUs = append(st.resetUs, float64(time.Since(t))/float64(time.Microsecond))
		runtime.ReadMemStats(&m0)
		t = time.Now()
		tr, ops, err := c.execute(backends[i], arena, log)
		st.wall += time.Since(t)
		runtime.ReadMemStats(&m1)
		st.allocs += m1.Mallocs - m0.Mallocs
		if err != nil {
			return st, fmt.Errorf("replay %s: %w", c.name, err)
		}
		st.gridOps += ops
		st.chunks += tr.Len()
		st.reports = append(st.reports, tr.BuildReport(len(c.platform.Workers)))
		st.makespans = append(st.makespans, tr.Makespan())
	}
	return st, nil
}

// sameReports is the decorator transparency check: the decorated replay
// must produce exactly the undecorated replay's trace reports.
func sameReports(a, b replayStats) bool {
	return reflect.DeepEqual(a.reports, b.reports) && reflect.DeepEqual(a.makespans, b.makespans)
}
