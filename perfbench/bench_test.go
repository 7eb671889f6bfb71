package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
)

func TestPercentileSampleCountRule(t *testing.T) {
	cases := []struct{ p, n int }{{50, 20}, {90, 100}, {99, 1000}}
	for _, c := range cases {
		if got := minSamples(c.p); got != c.n {
			t.Errorf("minSamples(%d) = %d, want %d", c.p, got, c.n)
		}
		if !tailOK(c.n, c.p) || tailOK(c.n-1, c.p) {
			t.Errorf("p%d: tailOK must turn true exactly at n=%d", c.p, c.n)
		}
		if beyond := c.n - rank(c.n, c.p); beyond != minTail {
			t.Errorf("p%d of %d samples leaves %d beyond it, want %d", c.p, c.n, beyond, minTail)
		}
	}
	if tailOK(0, 50) {
		t.Error("no samples cannot support a percentile")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// A failed round enters the samples as +Inf: once more than a tenth of
// the rounds fail, p90 reports the failure instead of a fast time.
func TestFailedRoundsFillTheTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 10
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	p90 := percentile(xs, 90)
	if !math.IsInf(p90, 1) {
		t.Fatalf("p90 with 11%% failures = %v, want +Inf", p90)
	}
	if finite(p90) != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want MaxFloat64", finite(p90))
	}
	if v := finite(median(nil)); v != 0 {
		t.Errorf("finite(median of nothing) = %v, want 0", v)
	}
	if got := percentile(xs, 50); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
}

func TestTally(t *testing.T) {
	var a tally
	if a.frac() != 0 {
		t.Error("empty tally must read 0")
	}
	for i := 0; i < 8; i++ {
		a.record(i%4 == 0)
	}
	b := tally{attempted: 2, failed: 1}
	a.add(b)
	if a.attempted != 10 || a.failed != 3 || a.frac() != 0.3 {
		t.Errorf("tally = %+v frac %v, want 10 attempted, 3 failed, 0.3", a, a.frac())
	}
}

func TestSelfTimeFold(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "ddp.round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "ml.forward", Start: 0, End: 30},
		{ID: 2, Parent: 0, Name: "netsim.run", Start: 40, End: 90},
		{ID: 3, Parent: -1, Name: "ddp.round", Start: 100, End: 150},
		{ID: 4, Parent: 3, Name: "netsim.run", Start: 100, End: 140},
	}
	hooks := []hookTotal{
		{Parent: 2, Name: hookDeliver, Ns: 15, Calls: 3},
		{Parent: 2, Name: hookComplete, Ns: 5, Calls: 1},
		{Parent: 4, Name: hookDeliver, Ns: 60, Calls: 9, Concurrent: true},
	}
	self := selfTimes(spans, hooks)
	want := map[string]int64{
		"ddp.round":  (100 - 30 - 50) + (50 - 40),
		"ml.forward": 30,
		// Serial hook time is subtracted; concurrent hook time (summed
		// over shards, longer than its parent) is not.
		"netsim.run": (50 - 15 - 5) + 40,
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	if got := hookTotals(hooks)[hookDeliver]; got != 75 {
		t.Errorf("deliver total = %d, want 75", got)
	}
	if got := totals(spans)["netsim.run"]; got != 90 {
		t.Errorf("netsim.run total = %d, want 90", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1) // must not panic

	tr := newTracer()
	tr.setRound(7)
	outer := tr.begin("ddp.round")
	inner := tr.begin("netsim.run")
	tr.deliver.observe(time.Microsecond)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents = %d, %d", tr.spans[inner].Parent, tr.spans[outer].Parent)
	}
	if tr.spans[inner].Round != 7 {
		t.Errorf("round tag = %d, want 7", tr.spans[inner].Round)
	}
	if len(tr.hooks) != 1 || tr.hooks[0].Parent != inner || tr.hooks[0].Calls != 1 {
		t.Errorf("hook time must go to the innermost open span: %+v", tr.hooks)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 3 {
		t.Errorf("wrote %d records, want 3 (2 spans + 1 hook)", n)
	}
}

// fakeJob fails every failEvery-th round (never when 0) and reports a
// fixed outcome; a broken one ends after its first failure, as a diverged
// training job does.
type fakeJob struct {
	n, steps  int
	failEvery int
	digest    uint64
	broken    bool
	failed    bool
}

func (f *fakeJob) step() round {
	f.steps++
	fail := f.failEvery > 0 && f.steps%f.failEvery == 0
	f.failed = f.failed || fail
	return round{host: time.Millisecond, failed: fail}
}
func (f *fakeJob) done() bool { return f.steps == f.n || (f.broken && f.failed) }
func (f *fakeJob) result() jobResult {
	return jobResult{complete: !f.broken, rounds: f.steps, digest: f.digest, counts: layerCounts{rounds: int64(f.steps)}}
}
func (f *fakeJob) close() {}

func fakeWorkload(jobDigest, refDigest uint64, broken bool) workload {
	return workload{
		name: "fake",
		build: func(uint64, *tracer) (job, error) {
			return &fakeJob{n: 6, failEvery: 3, digest: jobDigest, broken: broken}, nil
		},
		reference: func(uint64) (jobResult, error) { return jobResult{complete: true, rounds: 6, digest: refDigest}, nil },
	}
}

// fakeLibraryWorkload pairs a clean 6-round driver job with a library job
// whose Run takes 2 ms, ends with the given model perturbation and error.
func fakeLibraryWorkload(bump float32, runErr error) workload {
	model := ml.NewMLP(1, 2, 2)
	want := digest(model.Params())
	return workload{
		name: "fakelib",
		build: func(uint64, *tracer) (job, error) {
			return &fakeJob{n: 6, digest: want}, nil
		},
		library: func(uint64) (*libraryJob, error) {
			m := ml.NewMLP(1, 2, 2)
			m.Params()[0] += bump
			return &libraryJob{rounds: 6, model: m, run: func() (*ddp.Result, error) {
				time.Sleep(2 * time.Millisecond)
				return &ddp.Result{Points: []ddp.Point{{}}}, runErr
			}}, nil
		},
	}
}

// On a training workload the library's own Run is the rated job: its
// rounds set rounds_per_s and allocs_per_round, the driver's rounds set
// the percentiles, and the driver must reproduce the library's outcome.
func TestLibraryJobsAreRatedAndChecked(t *testing.T) {
	o := options{seed: 1, seconds: 0.001, setupRuns: 1, minRounds: 20}
	m, err := measure(fakeLibraryWorkload(0, nil), o)
	if err != nil {
		t.Fatal(err)
	}
	a := m.untraced
	if len(m.problems) > 0 {
		t.Fatalf("clean run reported problems: %q", m.problems)
	}
	if len(a.libJobs) == 0 || len(a.jobRates) != len(a.libJobs) || a.rated != 6*len(a.libJobs) {
		t.Fatalf("%d library jobs, %d rates over %d rounds: only library runs may be rated",
			len(a.libJobs), len(a.jobRates), a.rated)
	}
	for _, r := range a.jobRates {
		if r > 6/0.002 {
			t.Errorf("rate %v rounds/s is faster than the library's 2 ms run", r)
		}
	}
	if a.rounds < 20 || len(a.samples) != a.rounds {
		t.Errorf("%d driver rounds, %d samples", a.rounds, len(a.samples))
	}

	m, err = measure(fakeLibraryWorkload(1, nil), o)
	if err != nil {
		t.Fatal(err)
	}
	if !hasProblem(m, "differs from reference") {
		t.Errorf("a driver that no longer matches the library must be reported; problems: %q", m.problems)
	}

	m, err = measure(fakeLibraryWorkload(0, errors.New("rank 3 timed out")), o)
	if err != nil {
		t.Fatal(err)
	}
	if !hasProblem(m, "rank 3 timed out") || !hasProblem(m, "no library job completed") || m.tally.failed == 0 {
		t.Errorf("a failing library run must be counted and reported; tally %+v problems %q", m.tally, m.problems)
	}
}

func hasProblem(m *measurement, sub string) bool {
	for _, p := range m.problems {
		if strings.Contains(p, sub) {
			return true
		}
	}
	return false
}

// Failed rounds are counted, never aborted on: the run goes on to its
// sample budget, the tally and the result line carry the failures, and
// the run is reported incorrect.
func TestFailureAccounting(t *testing.T) {
	o := options{seed: 1, seconds: 0.001, setupRuns: 2, minRounds: 100}
	m, err := measure(fakeWorkload(5, 5, false), o)
	if err != nil {
		t.Fatal(err)
	}
	a := m.untraced
	if a.rounds < 100 {
		t.Fatalf("stopped after %d rounds despite failures; want at least 100", a.rounds)
	}
	inf := 0
	for _, s := range a.samples {
		if math.IsInf(s, 1) {
			inf++
		}
	}
	if inf == 0 || m.tally.failed == 0 || m.tally.failed > m.tally.attempted {
		t.Fatalf("failures not counted: %d +Inf samples, tally %+v", inf, m.tally)
	}
	res, info, err := m.report("fake", o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != m.tally.failed || res.Attempted != m.tally.attempted {
		t.Errorf("result %+v does not carry the tally %+v", res, m.tally)
	}
	if v := info["round_ms_p90"]; v != math.MaxFloat64 {
		t.Errorf("p90 with a third of rounds failed = %v, want MaxFloat64", v)
	}
}

// A workload whose every job fails still stops on time and reports that
// no job completed.
func TestFailingJobsStillStop(t *testing.T) {
	o := options{seed: 1, seconds: 0.001, setupRuns: 1, minRounds: 20}
	m, err := measure(fakeWorkload(5, 5, true), o)
	if err != nil {
		t.Fatal(err)
	}
	if m.untraced.rounds < 20 || len(m.untraced.jobs) != 0 {
		t.Fatalf("%d rounds, %d complete jobs", m.untraced.rounds, len(m.untraced.jobs))
	}
	if !hasProblem(m, "no job completed") {
		t.Errorf("problems %q must report that no job completed", m.problems)
	}
}

func TestReferenceMismatchIsIncorrect(t *testing.T) {
	o := options{seed: 1, seconds: 0.001, setupRuns: 1, minRounds: 1}
	m, err := measure(fakeWorkload(5, 6, false), o)
	if err != nil {
		t.Fatal(err)
	}
	if !hasProblem(m, "differs from reference") {
		t.Errorf("a digest mismatch must be reported; problems: %q", m.problems)
	}
}

func TestReportNeedsTailSamples(t *testing.T) {
	o := options{seed: 1, seconds: 0.001, setupRuns: 1, minRounds: 1}
	m, err := measure(fakeWorkload(5, 5, false), o)
	if err != nil {
		t.Fatal(err)
	}
	m.untraced.samples = m.untraced.samples[:minSamples(90)-1]
	if _, _, err := m.report("fake", o); err == nil {
		t.Error("report must refuse a p90 with fewer than 10 samples beyond it")
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload must exit non-zero")
	}
	if out.Len() != 0 {
		t.Errorf("no result may be printed, got %q", out.String())
	}
}

// smallWorkloads are the three workloads at a size the race detector can
// run in seconds.
func smallWorkloads() []workload {
	inject := injectSpec(1)
	inject.data.Train, inject.data.Test = 640, 200
	fabric := fabricTrimSpec(1)
	fabric.data.Train, fabric.data.Test = 1024, 200
	return []workload{
		trainWorkload("train_inject", inject),
		trainWorkload("train_fabric_trim", fabric),
		allreduceWorkload("allreduce_drop_sharded", dropShardedSpec(3)),
	}
}

// TestWorkloadSmoke runs every workload for a few rounds, traced and
// untraced: the timed loop, the traced loop and the library reference
// must agree, and every per-layer metric must be reported. Under -race it
// also checks the hook accumulators the sharded engine's goroutines share.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 3, seconds: 0.01, trace: true, out: t.TempDir(), setupRuns: 2, minRounds: 1}
			m, err := measure(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.problems) > 0 {
				t.Fatalf("checks failed: %q", m.problems)
			}
			res, info, err := m.report(w.name, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("result %+v", res)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if res.Metrics["core.encodes_per_gradient"].Value < 1 {
				t.Errorf("encodes_per_gradient = %v, want ≥ 1", res.Metrics["core.encodes_per_gradient"].Value)
			}
			if w.library != nil && len(m.untraced.libJobs) == 0 {
				t.Error("no library job ran in the untraced phase")
			}
			if m.traced.counts.rounds == 0 || len(m.tracer.spans) == 0 {
				t.Error("traced phase recorded nothing")
			}
			for _, a := range info["artifacts"].([]string) {
				if st, err := os.Stat(a); err != nil || st.Size() == 0 {
					t.Errorf("artifact %s missing or empty: %v", a, err)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists in
// step with the program: every workload but the hand-run ones is listed.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ws []workload
	for _, w := range workloads() {
		if !handOnly[w.name] {
			ws = append(ws, w)
		}
	}
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit || got[i].Better != s.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, got[i], s)
			}
		}
	}
	e2e := make([]struct{ Name, Unit, Better string }, len(doc.EndToEnd))
	for i, m := range doc.EndToEnd {
		e2e[i] = struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
