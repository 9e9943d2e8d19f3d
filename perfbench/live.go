package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/live"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/transport"
	"apstdv/internal/workload"
)

// The live job: one byte-divisible uniform spec over a generated input
// file, cut SIMPLE-style into equal chunks (SIMPLE skips probing, so the
// workers receive exactly the input's bytes). Workers burn one loop
// iteration per liveSpeed bytes, so moving data dominates.
const (
	liveInputBytes = 256 << 20
	// liveChunksPerWorker is SIMPLE-n's n: every worker gets n chunks.
	liveChunksPerWorker = 8
	liveMinJobs         = 8
	liveWorkPerUnit     = 1
	liveSpeed           = 64.0
	liveInputName       = "live-input.bin"
	liveJobTimeout      = 60 * time.Second
)

func liveSpec() string {
	return fmt.Sprintf(`<task executable="bench" input=%q>
 <divisibility input=%q method="uniform" steptype="bytes" stepsize="1" algorithm="simple-%d"/>
</task>`, liveInputName, liveInputName, liveChunksPerWorker)
}

// liveRig is a live-mode daemon driving in-process frame workers.
type liveRig struct {
	d     *daemon.Daemon
	srv   *transport.Server
	cl    *client.Client
	svcs  []*live.WorkerService
	conns []live.WorkerConn
	stops []func() // nil on a rig that borrows another rig's workers
	dir   string
}

// startLive generates the input file under dir and starts `workers`
// in-process workers and a live daemon serving the frame transport.
func startLive(dir string, workers int, seed uint64) (*liveRig, error) {
	r := &liveRig{dir: dir}
	if err := writeInput(filepath.Join(dir, liveInputName), seed); err != nil {
		return nil, err
	}
	for i := 0; i < workers; i++ {
		svc := live.NewWorkerService(liveWorkPerUnit, liveSpeed)
		addr, stop, err := live.Serve(svc)
		if err != nil {
			r.close()
			return nil, err
		}
		r.svcs = append(r.svcs, svc)
		r.stops = append(r.stops, stop)
		r.conns = append(r.conns, live.WorkerConn{Addr: addr})
	}
	if err := r.startDaemon(false); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// sharing returns a rig with its own daemon (traced or not) driving r's
// workers; closing it leaves the workers and the input to r.
func (r *liveRig) sharing(traced bool) (*liveRig, error) {
	s := &liveRig{svcs: r.svcs, conns: r.conns, dir: r.dir}
	if err := s.startDaemon(traced); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (r *liveRig) startDaemon(traced bool) error {
	cfg := daemon.Config{Mode: daemon.ModeLive, LiveWorkers: r.conns, SpecDir: r.dir, RetainJobs: 64}
	if traced {
		cfg.Trace = otrace.New(0)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	r.d = d
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = d.NewFrameServer(transport.ServerConfig{})
	go r.srv.Serve(ln)
	r.cl, err = client.Dial(ln.Addr().String())
	return err
}

func writeInput(path string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.GenerateBytes(f, liveInputBytes, seed); err != nil {
		f.Close()
		return fmt.Errorf("generate %s: %w", path, err)
	}
	return f.Close()
}

func (r *liveRig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r.d.Shutdown(ctx)
		cancel()
		r.srv.Close()
	}
	if r.stops == nil {
		return
	}
	for _, stop := range r.stops {
		stop()
	}
	os.Remove(filepath.Join(r.dir, liveInputName))
}

func (r *liveRig) bytesReceived() int64 {
	var n int64
	for _, s := range r.svcs {
		n += s.BytesReceived()
	}
	return n
}

// liveJob is one submitted job's outcome.
type liveJob struct {
	seconds float64 // submit call → daemon's Job.Finished
	job     daemon.Job
	moved   int64 // growth of the workers' BytesReceived
	err     error
}

func (j *liveJob) ok(r *liveRig) bool {
	return j.err == nil && j.job.State == daemon.JobDone &&
		j.job.Chunks == liveChunksPerWorker*len(r.svcs) && j.moved == liveInputBytes
}

// runJob submits the live spec and waits for it, reading the job's
// state from the in-process daemon every millisecond.
func (r *liveRig) runJob() liveJob {
	before := r.bytesReceived()
	t0 := time.Now()
	reply, err := r.cl.Submit(liveSpec(), "", "", nil)
	if err != nil {
		return liveJob{err: err}
	}
	deadline := t0.Add(liveJobTimeout)
	for {
		var st daemon.StatusReply
		if err := r.d.Status(daemon.StatusArgs{JobID: reply.JobID}, &st); err != nil {
			return liveJob{err: err}
		}
		if st.Job.State != daemon.JobQueued && st.Job.State != daemon.JobRunning {
			return liveJob{
				seconds: st.Job.Finished.Sub(t0).Seconds(),
				job:     st.Job, moved: r.bytesReceived() - before,
			}
		}
		if time.Now().After(deadline) {
			return liveJob{err: fmt.Errorf("live job %d still %s after %v", reply.JobID, st.Job.State, liveJobTimeout)}
		}
		time.Sleep(time.Millisecond)
	}
}
