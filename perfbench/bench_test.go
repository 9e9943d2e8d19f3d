package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/live"
	"apstdv/internal/workload"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.N != 999 {
		t.Fatalf("N = %d, want 999", d.N)
	}
	if !math.IsNaN(d.P99) {
		t.Errorf("p99 of 999 samples = %v; only 9 lie beyond it, want NaN", d.P99)
	}
	if d.P50 != 500 {
		t.Errorf("p50 = %v, want 500", d.P50)
	}
	d = summarize(append(xs, 1000))
	if d.P99 != 990 {
		t.Errorf("p99 of 1000 samples = %v, want 990 (10 beyond)", d.P99)
	}
	if d := summarize(xs[:19]); !math.IsNaN(d.P50) || d.N != 19 {
		t.Errorf("p50 of 19 samples = %v (n=%d), want NaN: 9 beyond", d.P50, d.N)
	}
	if d := summarize(nil); d.N != 0 || !math.IsNaN(d.P50) || !math.IsNaN(d.Max) {
		t.Errorf("empty sample summarized as %+v", d)
	}
}

func TestDistJSONWritesNull(t *testing.T) {
	b, err := json.Marshal(summarize([]float64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"n":3,"p50":null,"p99":null,"max":3}`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// search runs a knee search to the end against a pass/fail curve.
func search(start, resolution float64, maxSteps int, pass func(float64) bool) (float64, []kneeStep) {
	k := newKneeSearch(start, resolution, maxSteps)
	for {
		rate, ok := k.next()
		if !ok {
			return k.knee(), k.Steps
		}
		k.record(rate, pass(rate))
	}
}

func TestKneeSearchFindsSyntheticKnee(t *testing.T) {
	for _, knee := range []float64{1000, 5300, 5600, 9000, 30000} {
		got, steps := search(5600, 0.04, 20, func(rate float64) bool { return rate <= knee })
		if got > knee || got < knee/1.04 {
			t.Errorf("knee %v: found %v after %d steps, want within 4%% below", knee, got, len(steps))
		}
		if len(steps) > 12 {
			t.Errorf("knee %v: %d steps", knee, len(steps))
		}
	}
	if got, _ := search(5600, 0.04, 6, func(float64) bool { return false }); got != 0 {
		t.Errorf("no passing rate: got %v, want 0", got)
	}
	// A latency curve that rises before throughput stops: p99 crosses
	// the limit at 4000/s.
	p99 := func(rate float64) float64 { return 0.5 / (1 - rate/5000) }
	got, _ := search(2800, 0.02, 20, func(rate float64) bool { return rate < 5000 && p99(rate) <= 2.5 })
	if got > 4000 || got < 4000/1.02 {
		t.Errorf("p99 curve: knee %v, want just below 4000", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	s := submission{
		due:     due,
		sent:    due.Add(30 * time.Millisecond), // the sender ran late
		replied: due.Add(31 * time.Millisecond),
		out:     accepted,
		job:     daemon.Job{Finished: due.Add(40 * time.Millisecond)},
	}
	if got := s.doneLatency(); got != 40*time.Millisecond {
		t.Errorf("done latency %v, want 40ms from the due time", got)
	}
	s.out = rejected
	if got := s.rejectLatency(); got != 31*time.Millisecond {
		t.Errorf("reject latency %v, want 31ms from the due time", got)
	}
	p := &phaseResult{Rate: 100, subs: []submission{s}}
	p.summarize(due, time.Second)
	if p.Late.Max != 30 {
		t.Errorf("lateness max %v ms, want 30", p.Late.Max)
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	a, b := schedule(7, 2000, time.Second), schedule(7, 2000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 2000/s over 1s", n)
	}
	eights := 0
	for i := 1; i < len(a); i++ {
		if a[i].due.Before(a[i-1].due) {
			t.Fatal("arrivals out of order")
		}
		if jobMix[a[i].mix].load == 8 {
			eights++
		}
	}
	if frac := float64(eights) / float64(len(a)); frac < 0.65 || frac > 0.75 {
		t.Errorf("8-unit share %.2f, want about 0.7", frac)
	}
}

// optional lists which optional engine and dls interfaces v implements.
func optional(v any) []bool {
	_, op := v.(engine.OpBackend)
	_, peer := v.(engine.PeerBackend)
	_, timer := v.(engine.Timer)
	_, stop := v.(engine.Stopper)
	_, recal := v.(dls.Recalibrator)
	_, loss := v.(dls.WorkerLossAware)
	_, redist := v.(dls.RedistributionAware)
	_, sw := v.(dls.SwitchObservable)
	return []bool{op, peer, timer, stop, recal, loss, redist, sw}
}

func TestDecoratorsForwardExactlyTheOptionalInterfaces(t *testing.T) {
	g, err := grid.New(workload.DAS2(4), workload.Synthetic(0), grid.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []engine.Backend{g, &live.Backend{}} {
		d, _ := decorateBackend(b, newSpanLog())
		if got, want := optional(d), optional(b); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: decorated %v, wrapped %v", b, got, want)
		}
	}
	for _, a := range append(dls.PaperSet(), dls.NewFixedRUMR(), dls.NewWeightedFactoring()) {
		d := decorateAlg(a, newSpanLog())
		if got, want := optional(d), optional(a); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decorated %v, wrapped %v", a.Name(), got, want)
		}
	}
}

func TestDecoratedReplayMatches(t *testing.T) {
	cells, err := replayCells()
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]*grid.Backend, len(cells))
	for i, c := range cells {
		if backends[i], err = grid.New(c.platform, c.app, c.gcfg); err != nil {
			t.Fatal(err)
		}
	}
	arena := engine.NewArena()
	plain, err := replay(cells, backends, arena, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	deco, err := replay(cells, backends, arena, log)
	if err != nil {
		t.Fatal(err)
	}
	if !sameReports(plain, deco) {
		t.Fatal("decorated replay differs from the undecorated one")
	}
	for _, layer := range []string{"engine", "grid", "dls"} {
		if d, calls := log.layerSelf(layer); d <= 0 || calls == 0 {
			t.Errorf("layer %s: self %v over %d calls", layer, d, calls)
		}
	}
	if deco.gridOps == 0 {
		t.Error("no grid operations counted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	l.keep = true
	l.begin("engine.execute")
	time.Sleep(2 * time.Millisecond)
	l.begin("grid.run")
	time.Sleep(3 * time.Millisecond)
	l.end()
	l.end()
	total := time.Duration(l.spans[0].EndNs - l.spans[0].StartNs)
	child := time.Duration(l.spans[1].EndNs - l.spans[1].StartNs)
	if l.spans[1].Parent != 0 {
		t.Errorf("child parent %d, want 0", l.spans[1].Parent)
	}
	if got := time.Duration(l.selfNs["engine.execute"]); got != total-child {
		t.Errorf("engine self %v, want %v", got, total-child)
	}
	if got, _ := l.layerSelf("grid"); got != child {
		t.Errorf("grid self %v, want %v", got, child)
	}
}

// The metric tables must match BENCHMARK.json, which the benchmark's
// runner reads.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
