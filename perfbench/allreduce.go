package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"time"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/netsim"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/xrand"
)

// allreduceSpec is the no-ML fabric workload: 8 ranks, one per rack of a
// k=4 fat tree, repeat a direct all-reduce of a seeded gradient. The
// fabric is §5.1's "shallow+drop" baseline — 500 Mb/s links, 8 KB
// drop-tail buffers, reliable transport with its default timers — so
// every op goes through loss and retransmission, and it runs partitioned
// on the sharded engine.
type allreduceSpec struct {
	seed    uint64
	ranks   int
	dim     int
	rowSize int
	ops     int // all-reduce ops per job
	shards  int
	link    netsim.LinkConfig
	queue   netsim.QueueConfig
	timeout netsim.Time
	// maxNMSE bounds each rank's average against the exact mean. With
	// every packet delivered intact, heads and tails, the codec rebuilds
	// each gradient to float32 rounding (NMSE about 1e-14); a lost, doubled
	// or mis-scaled contribution lands orders of magnitude above it.
	maxNMSE float64
}

func dropShardedSpec(ops int) allreduceSpec {
	return allreduceSpec{
		ranks:   8,
		dim:     4096,
		rowSize: 1 << 11,
		ops:     ops,
		shards:  2,
		link:    netsim.LinkConfig{Bandwidth: netsim.Mbps(500), Delay: 5 * netsim.Microsecond},
		queue: netsim.QueueConfig{
			CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20,
			Mode: netsim.DropTail,
		},
		timeout: 10 * netsim.Second,
		maxNMSE: 1e-9,
	}
}

func (s allreduceSpec) seeded(seed uint64) allreduceSpec {
	s.seed = seed
	return s
}

// allreduceJob runs the spec's ops one per step.
type allreduceJob struct {
	spec    allreduceSpec
	tr      *tracer
	eng     *netsim.Engine
	topo    *netsim.Topology
	workers []*collective.Worker
	stacks  []*transport.Stack
	grads   [][]float32
	want    []float32
	msgBase uint32
	op      int

	hash      hash.Hash64
	simRounds []float64
	failed    bool
	counts    layerCounts
	err       error // first failure, for the report
}

func newAllreduceJob(spec allreduceSpec, tr *tracer) (*allreduceJob, error) {

	reg := tr.registry()
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K: 4, HostLink: spec.link, Queue: spec.queue,
	}, netsim.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	eng, err := netsim.ShardTopology(topo, spec.shards)
	if err != nil {
		return nil, err
	}
	j := &allreduceJob{spec: spec, tr: tr, eng: eng, topo: topo, msgBase: 1, hash: fnv.New64a()}
	if tr != nil {
		tr.concurrent = spec.shards > 1
	}
	perRack := len(topo.Hosts) / len(topo.Tiers[0].Switches)
	rng := xrand.New(spec.seed)
	for r := 0; r < spec.ranks; r++ {
		stack, err := transport.New(topo.Hosts[r*perRack])
		if err != nil {
			eng.Close()
			return nil, err
		}
		w, err := collective.New(r, stack, collective.WithConfig(core.Config{
			Params: quant.Params{Scheme: quant.RHT}, RowSize: spec.rowSize,
		}), collective.WithMode(collective.Reliable))
		if err != nil {
			eng.Close()
			return nil, err
		}
		w.Deadline = spec.timeout
		tr.wrap(stack)
		j.workers = append(j.workers, w)
		j.stacks = append(j.stacks, stack)
		g := make([]float32, spec.dim)
		gr := rng.Derive(uint64(r))
		for i := range g {
			g[i] = float32(gr.NormFloat64())
		}
		j.grads = append(j.grads, g)
	}
	j.want = make([]float32, spec.dim)
	for _, g := range j.grads {
		for i, v := range g {
			j.want[i] += v / float32(spec.ranks)
		}
	}
	return j, nil
}

func (j *allreduceJob) done() bool { return j.op == j.spec.ops }

// step runs one all-reduce op. Only the post and the simulation are
// timed; checking the averages and folding them into the digest is not.
func (j *allreduceJob) step() round {
	n := len(j.workers)
	avgs := make([][]float32, n)
	// The callbacks fire on the shard goroutine that owns the rank's host.
	var mu sync.Mutex
	var lastDone netsim.Time
	var opErr error
	start := j.eng.Now()
	t0 := time.Now()
	rid := j.tr.begin("ddp.round")
	id := j.tr.begin("collective.post")
	err := collective.AllReduce(collective.AlgDirect, uint64(j.op+1), j.msgBase, j.workers, j.grads,
		func(rank int, avg []float32, at netsim.Time) {
			mu.Lock()
			defer mu.Unlock()
			avgs[rank] = avg
			if at > lastDone {
				lastDone = at
			}
		},
		func(rank int, err error) {
			mu.Lock()
			defer mu.Unlock()
			if opErr == nil {
				opErr = fmt.Errorf("rank %d: %w", rank, err)
			}
		})
	j.tr.end(id)
	if err == nil {
		id = j.tr.begin("netsim.run")
		j.eng.RunUntil(start + j.spec.timeout)
		j.tr.end(id)
	}
	j.tr.end(rid)
	host := time.Since(t0)
	j.msgBase += collective.MsgSpan(collective.AlgDirect, n)
	j.op++
	comm := (lastDone - start).Seconds()
	j.counts.rounds++
	j.counts.simComm += comm
	j.simRounds = append(j.simRounds, comm)
	if err == nil {
		err = opErr
	}
	if err == nil {
		err = j.check(avgs)
	}
	if err != nil {
		j.failed = true
		if j.err == nil {
			j.err = fmt.Errorf("op %d: %w", j.op, err)
		}
		return round{host: host, simComm: comm, failed: true}
	}
	for _, a := range avgs {
		hashFloats(j.hash, a)
	}
	return round{host: host, simComm: comm}
}

// check requires every rank to have completed with a finite average close
// to the exact mean.
func (j *allreduceJob) check(avgs [][]float32) error {
	for rank, a := range avgs {
		if a == nil {
			return fmt.Errorf("rank %d never completed", rank)
		}
		if !allFinite(a) {
			return fmt.Errorf("rank %d: non-finite average", rank)
		}
		if e := nmse(a, j.want); e > j.spec.maxNMSE {
			return fmt.Errorf("rank %d: average NMSE %.3g exceeds %.3g", rank, e, j.spec.maxNMSE)
		}
	}
	return nil
}

func (j *allreduceJob) result() jobResult {
	c := j.counts
	c.events += int64(j.eng.Processed())
	c.addFabric(j.topo, j.stacks)
	ops := int64(j.msgBase-1) / int64(collective.MsgSpan(collective.AlgDirect, len(j.workers)))
	c.gradientRows += ops * int64(len(j.workers)) * int64(rowsOf(j.spec.dim, j.spec.rowSize))
	for _, w := range j.workers {
		c.trimmedCoords += int64(w.AggStats.TrimmedCoords)
		c.totalCoords += int64(w.AggStats.TotalCoords)
	}
	c.addCodec(j.eng.Snapshot())
	return jobResult{
		complete:  j.done() && !j.failed,
		rounds:    j.op,
		digest:    j.hash.Sum64(),
		simTime:   c.simComm,
		simRounds: j.simRounds,
		counts:    c,
	}
}

func (j *allreduceJob) close() { j.eng.Close() }

// allreduceReference replays the job on a 1-shard engine, the reference
// the partitioned engine must match bit for bit.
func allreduceReference(spec allreduceSpec) (jobResult, error) {
	spec.shards = 1
	j, err := newAllreduceJob(spec, nil)
	if err != nil {
		return jobResult{}, err
	}
	defer j.close()
	for !j.done() {
		j.step()
	}
	if j.failed {
		return jobResult{}, fmt.Errorf("1-shard reference: %w", j.err)
	}
	return j.result(), nil
}

// nmse is ‖a−want‖² / ‖want‖².
func nmse(a, want []float32) float64 {
	var num, den float64
	for i, w := range want {
		d := float64(a[i]) - float64(w)
		num += d * d
		den += float64(w) * float64(w)
	}
	if den <= 0 {
		return num
	}
	return num / den
}
