package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// round is what one training round (or all-reduce op) reports.
type round struct {
	host    time.Duration // host time of the round body
	simComm float64       // simulated exchange seconds
	failed  bool
}

// jobResult is a job's outcome. For a complete job every field except
// counts is deterministic in the seed and must repeat exactly.
type jobResult struct {
	complete   bool
	rounds     int
	digest     uint64
	top1, loss float64
	simTime    float64   // simulated seconds: the time-to-accuracy axis
	simRounds  []float64 // simulated exchange seconds per round
	counts     layerCounts
}

// same reports whether two results carry identical deterministic outcomes.
func (r jobResult) same(o jobResult) bool {
	return r.rounds == o.rounds && r.digest == o.digest &&
		math.Float64bits(r.top1) == math.Float64bits(o.top1) &&
		math.Float64bits(r.loss) == math.Float64bits(o.loss) &&
		math.Float64bits(r.simTime) == math.Float64bits(o.simTime)
}

// job is one fixed-length, seed-determined unit of work, run by the
// benchmark's driver one round per step: a training run of a few epochs,
// or a run of all-reduce ops. The benchmark repeats jobs until its time is
// up, so every run ends in at least one complete job whose outcome can be
// checked.
type job interface {
	step() round
	done() bool
	result() jobResult
	close()
}

// workload is one named benchmark input.
type workload struct {
	name string
	// build sets up a driver job from the seed; tr is nil in the untraced
	// run.
	build func(seed uint64, tr *tracer) (job, error)
	// library, on the training workloads, sets up the same job through
	// ddp's own constructors, to be run by ddp's own loop.
	library func(seed uint64) (*libraryJob, error)
	// reference, where there is no library job, runs one job another way
	// (the all-reduce on a 1-shard engine) for the output check.
	reference func(seed uint64) (jobResult, error)
}

// jobSizes are the full job lengths: a couple of seconds of host time
// each, so a run holds several complete jobs.
var jobSizes = struct{ injectEpochs, fabricEpochs, allreduceOps int }{2, 4, 40}

// handOnly names the workloads that run only when asked for by name and
// are not in BENCHMARK.json: train_fabric_trim's round time spreads past
// any bound the benchmark may set on a shared 2-vCPU host (README.md,
// "Noise"), but its traced run still attributes the trim-fabric round.
var handOnly = map[string]bool{"train_fabric_trim": true}

func workloads() []workload {
	return []workload{
		trainWorkload("train_inject", injectSpec(jobSizes.injectEpochs)),
		trainWorkload("train_fabric_trim", fabricTrimSpec(jobSizes.fabricEpochs)),
		allreduceWorkload("allreduce_drop_sharded", dropShardedSpec(jobSizes.allreduceOps)),
	}
}

func trainWorkload(name string, spec trainSpec) workload {
	return workload{
		name: name,
		build: func(seed uint64, tr *tracer) (job, error) {
			j, err := newTrainJob(spec.seeded(seed), tr)
			if err != nil {
				return nil, err
			}
			return j, nil
		},
		library: func(seed uint64) (*libraryJob, error) { return newLibraryJob(spec.seeded(seed)) },
	}
}

func allreduceWorkload(name string, spec allreduceSpec) workload {
	return workload{
		name: name,
		build: func(seed uint64, tr *tracer) (job, error) {
			j, err := newAllreduceJob(spec.seeded(seed), tr)
			if err != nil {
				return nil, err
			}
			return j, nil
		},
		reference: func(seed uint64) (jobResult, error) { return allreduceReference(spec.seeded(seed)) },
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setup is what one set-up builds: a driver job, past its warm-up round,
// and, on a training workload outside the traced phase, a library job.
type setup struct {
	drv  job
	warm round
	lib  *libraryJob
}

// setUp builds the jobs and runs the driver's untimed warm-up round, which
// starts the par pool and fills the arenas and sync.Pools so that their
// one-off cost reads as set-up rather than as per-round cost.
func setUp(w workload, seed uint64, tr *tracer) (setup, time.Duration, error) {
	t0 := time.Now()
	var s setup
	if w.library != nil && tr == nil {
		lib, err := w.library(seed)
		if err != nil {
			return s, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		s.lib = lib
	}
	j, err := w.build(seed, tr)
	if err != nil {
		return s, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	s.drv = j
	s.warm = j.step()
	return s, time.Since(t0), nil
}

// phase is one closed-loop measurement: set-ups run back to back, each
// its library job's Run, timed whole, then its driver job, timed round by
// round, until a driver job ends after the time budget and the minimum
// sample count are met. Stopping only between jobs keeps every phase a whole
// number of jobs, with the same share of epoch-end work, and makes sure
// at least one job ran to its end.
type phase struct {
	samples  []float64 // host ms per timed driver round; +Inf for a failed round
	rounds   int       // timed driver rounds
	tally    tally     // every round run, warm-up rounds included
	jobRates []float64 // rounds per host second of each rated job
	allocs   uint64    // heap objects allocated in the rated jobs
	rated    int       // rounds in the rated jobs
	setups   []float64
	jobs     []jobResult // complete driver jobs
	libJobs  []jobResult // complete library jobs
	failures []string    // why library jobs failed
	counts   layerCounts // every driver job of the phase
	heapMB   float64
	cpu0     cpuClock
	cpu1     cpuClock
}

func runPhase(w workload, seed uint64, tr *tracer, s setup, budget time.Duration, minRounds int) (*phase, error) {
	ph := &phase{cpu0: readCPU()}
	start := time.Now()
	for {
		if s.lib != nil {
			ph.runLibrary(s.lib)
		}
		ph.runDriver(s.drv, tr, s.lib == nil)
		if time.Since(start) >= budget && ph.rounds >= minRounds {
			break
		}
		s.drv.close()
		ns, d, err := setUp(w, seed, tr)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, d.Seconds())
		ph.tally.record(ns.warm.failed)
		s = ns
	}
	ph.cpu1 = readCPU()
	// The last jobs are complete but still live, so the retained heap is
	// always one finished job's state: the library job's where there is
	// one, else the driver job's.
	if s.lib != nil {
		s.drv.close()
		s.drv = nil
		ph.heapMB = retainedHeapMB()
		runtime.KeepAlive(s.lib)
		return ph, nil
	}
	ph.heapMB = retainedHeapMB()
	s.drv.close()
	return ph, nil
}

// runLibrary times a library job's Run as a whole. Run gives no
// per-round results, so a failed run counts as one failed round.
func (ph *phase) runLibrary(l *libraryJob) {
	a0, t0 := heapAllocs(), time.Now()
	res, err := l.run()
	d := time.Since(t0)
	ph.allocs += heapAllocs() - a0
	ph.rated += l.rounds
	ph.jobRates = append(ph.jobRates, float64(l.rounds)/d.Seconds())
	r, err := l.outcome(res, err)
	t := tally{attempted: l.rounds}
	if err != nil {
		t.failed = 1
		ph.failures = append(ph.failures, fmt.Sprintf("library job: %v", err))
	} else {
		ph.libJobs = append(ph.libJobs, r)
	}
	ph.tally.add(t)
}

// runDriver steps a driver job to its end, timing each round. Where no
// library job ran, the driver job is also the rated one.
func (ph *phase) runDriver(j job, tr *tracer, rated bool) {
	a0, t0, n := heapAllocs(), time.Now(), 0
	for !j.done() {
		tr.setRound(ph.rounds + 1)
		r := j.step()
		ph.rounds++
		n++
		ph.tally.record(r.failed)
		ms := float64(r.host) / 1e6
		if r.failed {
			ms = math.Inf(1)
		}
		ph.samples = append(ph.samples, ms)
	}
	if rated && n > 0 {
		ph.jobRates = append(ph.jobRates, float64(n)/time.Since(t0).Seconds())
		ph.allocs += heapAllocs() - a0
		ph.rated += n
	}
	res := j.result()
	ph.counts.add(res.counts)
	if res.complete {
		ph.jobs = append(ph.jobs, res)
	}
}

// options are one invocation's settings.
type options struct {
	seed      uint64
	seconds   float64
	trace     bool
	out       string // directory for the traced run's spans and profile
	setupRuns int
	minRounds int // timed rounds the untraced run needs at least
}

// measurement is everything one invocation measured.
type measurement struct {
	setups    []float64
	tally     tally
	untraced  *phase
	traced    *phase
	tracer    *tracer
	ref       jobResult
	problems  []string
	artifacts []string
}

func measure(w workload, o options) (*measurement, error) {
	m := &measurement{}
	var s setup
	for i := 0; i < o.setupRuns; i++ {
		if s.drv != nil {
			s.drv.close()
		}
		ns, d, err := setUp(w, o.seed, nil)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
		m.tally.record(ns.warm.failed)
		s = ns
	}
	runtime.GC()
	budget := time.Duration(o.seconds * float64(time.Second))
	minRounds := o.minRounds
	if o.trace {
		// The traced run splits its time between an untraced phase, the
		// base of trace.overhead_frac and of the runtime rows, and the
		// traced phase.
		budget /= 2
		minRounds = 1
	}
	a, err := runPhase(w, o.seed, nil, s, budget, minRounds)
	if err != nil {
		return nil, err
	}
	m.untraced = a
	m.setups = append(m.setups, a.setups...)
	m.tally.add(a.tally)
	m.problems = append(m.problems, a.failures...)
	if o.trace {
		if err := m.traceRun(w, o, budget); err != nil {
			return nil, err
		}
	}
	switch {
	case w.reference != nil:
		ref, err := w.reference(o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", w.name, err)
		}
		m.ref = ref
	case len(a.libJobs) > 0:
		m.ref = a.libJobs[0]
	default:
		m.problems = append(m.problems, "no library job completed")
	}
	m.check()
	return m, nil
}

// traceRun is the traced phase: spans around every layer call, an obs
// registry on the layers it builds, and a CPU profile, written beside the
// spans so `go tool pprof -top` can split spans that cover several
// packages.
func (m *measurement) traceRun(w workload, o options, budget time.Duration) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	tr := newTracer()
	s, _, err := setUp(w, o.seed, tr)
	var b *phase
	if err == nil {
		b, err = runPhase(w, o.seed, tr, s, budget, 1)
	}
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.tally.record(s.warm.failed)
	m.tally.add(b.tally)
	m.traced, m.tracer = b, tr
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	m.artifacts = append(m.artifacts, base+".spans.jsonl", base+".cpu.pprof")
	return nil
}

// check compares every complete job with the reference. The library
// jobs, the timed driver loop and the traced driver loop must reach the
// same final parameters (or, for the all-reduce, the same averages on
// every op at 1 and 2 shards), and no round may fail.
func (m *measurement) check() {
	for _, ph := range []*phase{m.untraced, m.traced} {
		if ph == nil {
			continue
		}
		if len(ph.jobs) == 0 {
			m.problems = append(m.problems, "no job completed")
		}
		for i, r := range slices.Concat(ph.jobs, ph.libJobs) {
			if !r.same(m.ref) {
				m.problems = append(m.problems, fmt.Sprintf(
					"job %d: outcome rounds=%d digest=%016x top1=%v loss=%v sim=%v differs from reference rounds=%d digest=%016x top1=%v loss=%v sim=%v",
					i, r.rounds, r.digest, r.top1, r.loss, r.simTime, m.ref.rounds, m.ref.digest, m.ref.top1, m.ref.loss, m.ref.simTime))
			}
		}
	}
	if m.tally.failed > 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d of %d rounds failed", m.tally.failed, m.tally.attempted))
	}
}
