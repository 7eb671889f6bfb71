// Command perfbench is trimgrad's training-round benchmark. It runs one
// named workload of synchronous rounds — a closed loop with one client,
// where round k+1 starts only after round k's exchange has finished on
// every rank — checks the outputs against the library's own loop, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as the last line of standard output.
//
//	bash perfbench/run.sh --workload train_inject --seed 1 --seconds 50 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSpec is one reported metric. The bounds live in BENCHMARK.json,
// and TestBenchmarkJSON keeps its lists in step with these.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run. The whole-run p90 of the
// round is printed on the info line instead: on a shared host it moves
// with the host's stalls from run to run by more than any bound the
// benchmark may set (README.md, "Noise").
var endToEnd = []metricSpec{
	{"round_ms_p50", "ms", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"allocs_per_round", "count", "lower"},
	{"heap_mb_retained", "MB", "lower"},
}

// perLayer are the metrics of the traced run. Simulated times carry the
// units sim_ms and sim_s: they are deterministic outcomes of the model or
// the simulator, not host time.
var perLayer = []metricSpec{
	{"ml.forward_ms", "ms", "lower"},
	{"ml.backward_ms", "ms", "lower"},
	{"ml.step_ms", "ms", "lower"},
	{"ml.eval_ms", "ms", "lower"},
	{"core.encode_ms", "ms", "lower"},
	{"core.handle_ms", "ms", "lower"},
	{"core.decode_ms", "ms", "lower"},
	{"core.packets_per_round", "count", "lower"},
	{"core.wire_bytes_per_round", "B", "lower"},
	{"core.trim_frac", "ratio", "lower"},
	{"core.encodes_per_gradient", "ratio", "lower"},
	{"collective.post_ms", "ms", "lower"},
	{"collective.deliver_ms", "ms", "lower"},
	{"collective.complete_ms", "ms", "lower"},
	{"netsim.run_ms", "ms", "lower"},
	{"netsim.self_ms", "ms", "lower"},
	{"netsim.events_per_round", "count", "lower"},
	{"netsim.events_per_s", "1/s", "higher"},
	{"netsim.trimmed_pkts_per_round", "count", "lower"},
	{"netsim.dropped_pkts_per_round", "count", "lower"},
	{"netsim.queue_bytes_max", "B", "lower"},
	{"transport.retransmits_per_round", "count", "lower"},
	{"transport.timeouts_per_round", "count", "lower"},
	{"transport.goodput_frac", "ratio", "higher"},
	{"ddp.batches_ms", "ms", "lower"},
	{"ddp.sim_comm_ms", "sim_ms", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.cpu_util", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"outcome.final_top1", "ratio", "higher"},
	{"outcome.final_loss", "nats", "lower"},
	{"outcome.sim_time_s", "sim_s", "lower"},
	{"outcome.sim_round_ms_p90", "sim_ms", "lower"},
	{"outcome.failed_round_frac", "ratio", "lower"},
}

// setupRuns is how many times a run sets its workload up before timing;
// setup_s is the median over these and every job restarted later.
const setupRuns = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train_inject | train_fabric_trim | allreduce_drop_sharded")
	seed := fs.Uint64("seed", 1, "seed for the dataset, gradients and injector streams")
	seconds := fs.Float64("seconds", 30, "time the run measures, in seconds")
	trace := fs.Int("trace", 0, "1: traced run, printing per-layer metrics")
	out := fs.String("out", ".bench_build/trace", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		setupRuns: setupRuns, minRounds: minSamples(90),
	}
	m, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, info, err := m.report(w.name, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	info["env"] = environment(o.seed)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, p := range m.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// finite keeps a metric JSON-encodable: a percentile that lands on a
// failed round (+Inf) reads as the largest float, and a median over no
// samples (NaN, when every job failed in its warm-up) reads 0.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// report turns a measurement into the result line and the info line.
func (m *measurement) report(workload string, o options) (result, map[string]any, error) {
	a := m.untraced
	p50 := percentile(append([]float64(nil), a.samples...), 50)
	var p90 float64
	vals := make(map[string]float64)
	specs := endToEnd
	if o.trace {
		specs = perLayer
		b := m.traced
		for k, v := range layerMetrics(m.tracer, b.counts) {
			vals[k] = v
		}
		vals["runtime.gc_cpu_frac"] = gcCPUFrac(a.cpu0, a.cpu1)
		vals["runtime.cpu_util"] = cpuUtil(a.cpu0, a.cpu1)
		vals["trace.overhead_frac"] = percentile(append([]float64(nil), b.samples...), 50)/p50 - 1
		vals["outcome.final_top1"] = m.ref.top1
		vals["outcome.final_loss"] = m.ref.loss
		vals["outcome.sim_time_s"] = m.ref.simTime
		vals["outcome.sim_round_ms_p90"] = m.simRoundP90()
		vals["outcome.failed_round_frac"] = m.tally.frac()
	} else {
		if !tailOK(len(a.samples), 90) {
			return result{}, nil, fmt.Errorf("%d timed rounds: p90 needs at least %d", len(a.samples), minSamples(90))
		}
		vals["round_ms_p50"] = p50
		p90 = percentile(append([]float64(nil), a.samples...), 90)
		vals["rounds_per_s"] = median(a.jobRates)
		vals["setup_s"] = median(m.setups)
		vals["allocs_per_round"] = per(float64(a.allocs), int64(a.rated))
		vals["heap_mb_retained"] = a.heapMB
	}
	res := result{
		Correct:   len(m.problems) == 0,
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed,
		Metrics:   make(map[string]value, len(specs)),
	}
	for _, s := range specs {
		res.Metrics[s.name] = value{Value: finite(vals[s.name]), Unit: s.unit}
	}
	jobs := len(a.jobs)
	if m.traced != nil {
		jobs += len(m.traced.jobs)
	}
	info := map[string]any{
		"workload":           workload,
		"round_samples":      len(a.samples),
		"rate_samples":       len(a.jobRates),
		"setup_samples":      len(m.setups),
		"jobs_completed":     jobs,
		"lib_jobs_completed": len(a.libJobs),
		"outcome": map[string]any{
			"digest":            fmt.Sprintf("%016x", m.ref.digest),
			"final_top1":        m.ref.top1,
			"final_loss":        m.ref.loss,
			"sim_time_s":        m.ref.simTime,
			"sim_round_ms_p90":  m.simRoundP90(),
			"failed_round_frac": m.tally.frac(),
		},
	}
	if !o.trace {
		info["round_ms_p90"] = finite(p90)
	}
	if len(m.problems) > 0 {
		sort.Strings(m.problems)
		info["problems"] = m.problems
	}
	if len(m.artifacts) > 0 {
		info["artifacts"] = m.artifacts
	}
	return res, info, nil
}

// simRoundP90 is the p90 simulated exchange time of one complete job, in
// ms. It is deterministic, so one job's rounds suffice.
func (m *measurement) simRoundP90() float64 {
	if len(m.untraced.jobs) == 0 {
		return 0
	}
	sim := m.untraced.jobs[0].simRounds
	ms := make([]float64, len(sim))
	for i, s := range sim {
		ms[i] = s * 1e3
	}
	return percentile(ms, 90)
}
