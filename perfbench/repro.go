package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"time"

	"apstdv/internal/experiment"
)

// paperRuns is the paper's repetitions per (algorithm, γ) cell.
const paperRuns = 10

// reproDigest is the SHA-256 of one suite pass's rendered output, as
// produced at the commit that introduced this benchmark. The output is
// byte-identical at every pool width, so one reference serves all.
const reproDigest = "322bf727d7e8568bf735157216b0f753179897468b79426c1c2e89d20e5323d8"

// reproPart is one experiment of the fixed reproduction suite, run
// through the experiment package's public entry points.
type reproPart struct {
	id  string
	run func(width int) (string, error)
}

var reproSuite = []reproPart{
	{"table1", func(int) (string, error) { return experiment.Table1().Render(), nil }},
	{"fig2", specPart(experiment.Figure2)},
	{"fig3", specPart(experiment.Figure3)},
	{"fig4", specPart(experiment.Figure4)},
	{"casestudy", specPart(experiment.CaseStudy)},
	{"failures", func(width int) (string, error) {
		fs := experiment.DefaultFailureSweep()
		fs.Runs, fs.Parallelism = paperRuns, width
		cells, err := fs.Run()
		if err != nil {
			return "", err
		}
		return experiment.RenderFailures(cells), nil
	}},
	{"redistrib", func(width int) (string, error) {
		rs := experiment.DefaultRedistributionSweep()
		rs.Runs, rs.Parallelism = paperRuns, width
		cells, err := rs.Run()
		if err != nil {
			return "", err
		}
		return experiment.RenderRedistribution(cells), nil
	}},
}

func specPart(mk func() *experiment.Spec) func(int) (string, error) {
	return func(width int) (string, error) {
		s := mk()
		s.Runs, s.Parallelism = paperRuns, width
		res, err := s.Run()
		if err != nil {
			return "", err
		}
		return res.Table(), nil
	}
}

// reproPass is one timed pass over the whole suite.
type reproPass struct {
	wall   time.Duration
	partMs map[string]float64
	digest string
}

// runReproPass runs every suite part once, in the order perm gives, at
// the given pool width, and digests the outputs in suite order so the
// digest does not depend on the execution order. Each part is a span
// when log is non-nil.
func runReproPass(width int, perm []int, log *spanLog) (reproPass, error) {
	outs := make([]string, len(reproSuite))
	p := reproPass{partMs: make(map[string]float64, len(reproSuite))}
	start := time.Now()
	for _, i := range perm {
		if log != nil {
			log.begin("experiment." + reproSuite[i].id)
		}
		t := time.Now()
		out, err := reproSuite[i].run(width)
		if log != nil {
			log.end()
		}
		if err != nil {
			return p, err
		}
		p.partMs[reproSuite[i].id] = float64(time.Since(t)) / float64(time.Millisecond)
		outs[i] = out
	}
	p.wall = time.Since(start)
	h := sha256.New()
	for i, out := range outs {
		h.Write([]byte(reproSuite[i].id + "\n" + out + "\n"))
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// reproOrder is the seeded execution order of one pass.
func reproOrder(rng *rand.Rand) []int { return rng.Perm(len(reproSuite)) }
