package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer, kept in memory
// and written out when the run ends. Parent is the index of the span
// open when this one began (-1 at the root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// spanLog records nested spans on one goroutine. A span's self time is
// its duration minus the time its child spans cover; selfNs and calls
// accumulate per span name whether or not the spans themselves are
// kept.
type spanLog struct {
	t0     time.Time
	keep   bool
	spans  []span
	open   []openSpan
	selfNs map[string]int64
	calls  map[string]int
}

type openSpan struct {
	name    string
	start   int64
	childNs int64
	index   int
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), selfNs: map[string]int64{}, calls: map[string]int{}}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

func (l *spanLog) begin(name string) {
	o := openSpan{name: name, start: l.now(), index: -1}
	if l.keep {
		parent := -1
		if n := len(l.open); n > 0 {
			parent = l.open[n-1].index
		}
		o.index = len(l.spans)
		l.spans = append(l.spans, span{Name: name, StartNs: o.start, Parent: parent})
	}
	l.open = append(l.open, o)
}

func (l *spanLog) end() {
	n := len(l.open) - 1
	o := l.open[n]
	l.open = l.open[:n]
	end := l.now()
	dur := end - o.start
	l.selfNs[o.name] += dur - o.childNs
	l.calls[o.name]++
	if n > 0 {
		l.open[n-1].childNs += dur
	}
	if o.index >= 0 {
		l.spans[o.index].EndNs = end
	}
}

// layerSelf sums self time and calls over every span name in a layer
// (the name's prefix before the first dot).
func (l *spanLog) layerSelf(layer string) (time.Duration, int) {
	var ns int64
	calls := 0
	for name, v := range l.selfNs {
		if strings.HasPrefix(name, layer+".") {
			ns += v
			calls += l.calls[name]
		}
	}
	return time.Duration(ns), calls
}

// writeJSONL writes the kept spans, one per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
