package main

import (
	"fmt"
	"math"
	"time"

	"trimgrad/internal/collective"
	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
	"trimgrad/internal/vecmath"
)

// trainSpec is one training workload: the dataset, the model, the ddp
// configuration with every default spelled out, and — for the closed-loop
// workload — the fabric under the exchange.
type trainSpec struct {
	data   ml.SyntheticConfig
	hidden []int
	cfg    ddp.Config
	fabric *ddp.FabricConfig // nil: the §4 injector exchange
}

// seeded derives the run's inputs from the benchmark seed: the dataset,
// the model initialization, the batch order and the injector stream.
func (s trainSpec) seeded(seed uint64) trainSpec {
	s.data.Seed = 42 + seed
	s.cfg.Seed = 1 + seed
	return s
}

// injectSpec is the Fig. 3 setup: 2 workers, the 100-class synthetic
// task, MLP 64-128-100, RHT with 2^15-coordinate rows and a pre-set trim
// rate of 0.1.
func injectSpec(epochs int) trainSpec {
	return trainSpec{
		data: ml.SyntheticConfig{
			Classes: 100, Dim: 64, Train: 8000, Test: 2000,
			Noise: 12.8, Spread: 8.0,
		},
		hidden: []int{128},
		cfg:    ddpConfig(2, 1<<15, 0.07, epochs, ddp.DefaultCostModel(), 0.1),
	}
}

// fabricTrimSpec is the §5.1 "shallow+trim" closed loop on a k=4 fat
// tree: 8 workers, 500 Mb/s links, 8 KB trimming buffers, trim-aware
// transport, direct all-reduce, RHT with 2^11-coordinate rows.
func fabricTrimSpec(epochs int) trainSpec {
	cost := ddp.DefaultCostModel()
	cost.Compute = 0.004
	cost.Comm = 0.002
	return trainSpec{
		data: ml.SyntheticConfig{
			Classes: 30, Dim: 32, Train: 3000, Test: 800,
			Noise: 2.4, Spread: 2.0,
		},
		hidden: []int{128},
		cfg:    ddpConfig(8, 1<<11, 0.05, epochs, cost, 0),
		fabric: &ddp.FabricConfig{
			Topology: "fattree",
			FatTreeK: 4,
			Link:     netsim.LinkConfig{Bandwidth: netsim.Mbps(500), Delay: 5 * netsim.Microsecond},
			Queue: netsim.QueueConfig{
				CapacityBytes: 8 << 10, HighCapacityBytes: 1 << 20,
				Mode: netsim.TrimOverflow,
			},
			Mode:         collective.Trimmable,
			Algorithm:    collective.AlgDirect,
			RoundTimeout: 10 * netsim.Second,
		},
	}
}

// ddpConfig fills every field ddp would otherwise default, so the driver
// and the library run read the same values.
func ddpConfig(workers, rowSize int, lr float64, epochs int, cost ddp.CostModel, trim float64) ddp.Config {
	return ddp.Config{
		Workers:   workers,
		Scheme:    &quant.Params{Scheme: quant.RHT},
		TrimRate:  trim,
		RowSize:   rowSize,
		Batch:     64,
		Epochs:    epochs,
		LR:        lr,
		Momentum:  0.9,
		StepSize:  20,
		Gamma:     0.5,
		Cost:      cost,
		EvalEvery: 1,
	}
}

// exchanger averages one round's gradients across the workers.
type exchanger interface {
	// exchange returns the average and the simulated exchange seconds
	// (the cost model's when no fabric runs).
	exchange(epoch uint64, grads [][]float32) ([]float32, float64, error)
	// collect adds the layers' counters to c.
	collect(c *layerCounts)
}

// trainJob is the benchmark's training driver, a copy of ddp's round
// loop. It makes the same calls, in the same order, as ddp.Trainer.Run
// (or NetTrainer.Run with a fabric), one round per step, because Run has
// no per-round hook: stepping is what lets each round be timed on the
// host and each layer call be traced. Its final-parameter digest must
// equal the library job's, which proves the loops are the same program;
// a change to ddp's loop must be mirrored here.
type trainJob struct {
	cfg    ddp.Config
	fabric bool
	tr     *tracer
	model  *ml.Model
	test   *ml.Dataset
	shards []*ml.Dataset
	opt    *ml.SGD
	sched  *ml.StepLR
	ex     exchanger
	grads  [][]float32

	epoch  int // current epoch, 1-based
	next   int // next round within the epoch
	rounds int // rounds in the current epoch; 0 before its batches are cut
	xs     [][][][]float32
	ys     [][][]int

	epochLoss  float64
	wall       float64
	top1, loss float64
	simRounds  []float64
	finished   bool
	failed     bool
	counts     layerCounts
}

// newTrainJob builds a job from the generated inputs: dataset, model,
// optimizer and, for the closed loop, the fabric, stacks and workers.
func newTrainJob(spec trainSpec, tr *tracer) (*trainJob, error) {
	train, test := ml.Synthetic(spec.data)
	cfg := spec.cfg
	sizes := append([]int{train.Dim}, spec.hidden...)
	sizes = append(sizes, train.Classes)
	j := &trainJob{
		cfg:    cfg,
		fabric: spec.fabric != nil,
		tr:     tr,
		model:  ml.NewMLP(cfg.Seed, sizes...),
		test:   test,
		shards: train.Shard(cfg.Workers),
		grads:  make([][]float32, cfg.Workers),
		epoch:  1,
	}
	j.opt = ml.NewSGD(cfg.LR, cfg.Momentum)
	j.sched = ml.NewStepLR(j.opt, cfg.StepSize, cfg.Gamma)
	reg := tr.registry()
	var err error
	if spec.fabric == nil {
		j.ex, err = newInjectExchanger(cfg, j.model.NumParams(), tr, reg)
	} else {
		j.ex, err = newFabricExchanger(cfg, *spec.fabric, j.model.NumParams(), tr, reg)
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

func (j *trainJob) done() bool { return j.finished }

// step runs the next round. Cutting an epoch's batches before its first
// round and the StepLR tick and evaluation after its last are part of the
// step but not of the round's host time.
func (j *trainJob) step() round {
	if j.rounds == 0 {
		j.startEpoch()
	}
	t0 := time.Now()
	id := j.tr.begin("ddp.round")
	comm, err := j.roundBody()
	j.tr.end(id)
	host := time.Since(t0)
	j.counts.rounds++
	j.counts.simComm += comm
	j.simRounds = append(j.simRounds, comm)
	j.next++
	if err != nil {
		j.failed, j.finished = true, true
		return round{host: host, simComm: comm, failed: true}
	}
	if j.next == j.rounds {
		j.endEpoch()
	}
	return round{host: host, simComm: comm}
}

func (j *trainJob) startEpoch() {
	id := j.tr.begin("ddp.batches")
	j.xs = make([][][][]float32, j.cfg.Workers)
	j.ys = make([][][]int, j.cfg.Workers)
	j.rounds = math.MaxInt
	for w := range j.xs {
		j.xs[w], j.ys[w] = j.shards[w].Batches(j.cfg.Batch, j.cfg.Seed+uint64(j.epoch)*131+uint64(w))
		if len(j.xs[w]) < j.rounds {
			j.rounds = len(j.xs[w])
		}
	}
	j.tr.end(id)
	j.next = 0
	j.epochLoss = 0
	j.counts.epochs++
}

// roundBody is one synchronous round: every worker's forward/backward on
// its own batch, the exchange, and the SGD step on the average.
func (j *trainJob) roundBody() (float64, error) {
	r := j.next
	for w := 0; w < j.cfg.Workers; w++ {
		id := j.tr.begin("ml.forward")
		j.model.ZeroGrad()
		logits := j.model.Forward(j.xs[w][r], true)
		loss, dLogits := ml.SoftmaxCrossEntropy(logits, j.ys[w][r])
		j.tr.end(id)
		j.epochLoss += loss
		id = j.tr.begin("ml.backward")
		j.model.Backward(dLogits)
		j.grads[w] = append(j.grads[w][:0], j.model.Grads()...)
		j.tr.end(id)
	}
	avg, comm, err := j.ex.exchange(uint64(j.epoch), j.grads)
	if err != nil {
		return comm, err
	}
	id := j.tr.begin("ml.step")
	j.opt.Step(j.model.Params(), avg)
	j.tr.end(id)
	if j.fabric {
		j.wall += j.cfg.Cost.Compute + j.cfg.Cost.EncodeTime(j.cfg.Scheme) + comm
	} else {
		j.wall += j.cfg.Cost.RoundTime(j.cfg.Scheme, j.cfg.DropRate)
	}
	if !allFinite(j.model.Params()) {
		return comm, fmt.Errorf("diverged in epoch %d round %d", j.epoch, r)
	}
	return comm, nil
}

func (j *trainJob) endEpoch() {
	j.sched.EpochEnd()
	id := j.tr.begin("ml.eval")
	j.top1, _ = ml.Evaluate(j.model, j.test, 256)
	j.tr.end(id)
	j.loss = j.epochLoss / float64(j.rounds*j.cfg.Workers)
	if j.epoch == j.cfg.Epochs {
		j.finished = true
		return
	}
	j.epoch++
	j.rounds = 0
}

func (j *trainJob) result() jobResult {
	c := j.counts
	j.ex.collect(&c)
	return jobResult{
		complete:  j.finished && !j.failed,
		rounds:    int(j.counts.rounds),
		digest:    digest(j.model.Params()),
		top1:      j.top1,
		loss:      j.loss,
		simTime:   j.wall,
		simRounds: j.simRounds,
		counts:    c,
	}
}

func (j *trainJob) close() {}

// libraryJob is one job built by ddp's own constructors and run by ddp's
// own loop, Trainer.Run or NetTrainer.Run. Its run is the timed unit of
// rounds_per_s and allocs_per_round, and its outcome is the reference the
// driver must reproduce.
type libraryJob struct {
	rounds int
	model  *ml.Model
	run    func() (*ddp.Result, error)
}

// newLibraryJob sets the job up: the dataset, then the trainer with its
// model and, for the closed loop, its fabric, stacks and workers.
func newLibraryJob(spec trainSpec) (*libraryJob, error) {
	train, test := ml.Synthetic(spec.data)
	opts := []ddp.Option{ddp.WithConfig(spec.cfg), ddp.WithHidden(spec.hidden...)}
	// Run cuts each epoch into batches of the smallest worker shard.
	perEpoch := (train.Len()/spec.cfg.Workers + spec.cfg.Batch - 1) / spec.cfg.Batch
	l := &libraryJob{rounds: perEpoch * spec.cfg.Epochs}
	if spec.fabric == nil {
		t, err := ddp.NewTrainer(train, test, opts...)
		if err != nil {
			return nil, err
		}
		l.model, l.run = t.Model(), t.Run
		return l, nil
	}
	t, err := ddp.NewNetTrainer(train, test, append(opts, ddp.WithFabric(*spec.fabric))...)
	if err != nil {
		return nil, err
	}
	l.model, l.run = t.Model(), t.Run
	return l, nil
}

// outcome folds a finished run into a job result, or the reason it is
// not a complete job.
func (l *libraryJob) outcome(res *ddp.Result, err error) (jobResult, error) {
	switch {
	case err != nil:
		return jobResult{}, err
	case res.Diverged || len(res.Points) == 0:
		return jobResult{}, fmt.Errorf("diverged")
	}
	return jobResult{
		complete: true,
		rounds:   l.rounds,
		digest:   digest(l.model.Params()),
		top1:     res.FinalTop1,
		loss:     res.Points[len(res.Points)-1].Loss,
		simTime:  res.WallTotal,
	}, nil
}

// injectExchanger is ddp.Trainer's exchange: each worker's gradient is
// encoded, every data packet passes the pre-set trimming injector, and
// the decoder reconstructs it (the paper's §4 method).
type injectExchanger struct {
	cfg   ddp.Config
	dim   int
	tr    *tracer
	reg   *obs.Registry
	enc   *core.Encoder
	inj   core.Injector
	msgID uint32
	stats core.Stats
}

func newInjectExchanger(cfg ddp.Config, dim int, tr *tracer, reg *obs.Registry) (*injectExchanger, error) {
	enc, err := core.NewEncoderWith(core.WithConfig(core.Config{
		Params: *cfg.Scheme, RowSize: cfg.RowSize,
	}), core.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	return &injectExchanger{
		cfg: cfg, dim: dim, tr: tr, reg: reg, enc: enc,
		inj:   core.NewTrimmer(cfg.TrimRate, cfg.Seed+0x7717),
		msgID: 1,
	}, nil
}

func (x *injectExchanger) exchange(epoch uint64, grads [][]float32) ([]float32, float64, error) {
	avg := make([]float32, x.dim)
	for _, g := range grads {
		dec, err := x.one(epoch, g)
		if err != nil {
			return nil, 0, err
		}
		x.msgID++
		vecmath.Add(avg, dec)
	}
	vecmath.Scale(avg, 1/float32(len(grads)))
	// No fabric runs: the exchange's simulated time is the cost model's.
	return avg, x.cfg.Cost.Comm, nil
}

// one pushes one gradient through encode → injector → decode.
func (x *injectExchanger) one(epoch uint64, g []float32) ([]float32, error) {
	id := x.tr.begin("core.encode")
	msg, err := x.enc.EncodeParallel(epoch, x.msgID, g, 0)
	x.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = x.tr.begin("core.handle")
	dec, err := x.handle(msg)
	x.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = x.tr.begin("core.decode")
	out, stats, err := dec.DecodeParallel(len(g), 0)
	x.tr.end(id)
	if err != nil {
		return nil, err
	}
	x.stats.Accumulate(stats)
	return out, nil
}

func (x *injectExchanger) handle(msg *core.Message) (*core.Decoder, error) {
	dec, err := core.NewDecoder(core.Config{Params: *x.cfg.Scheme, RowSize: x.cfg.RowSize}, x.msgID)
	if err != nil {
		return nil, err
	}
	for _, m := range msg.Meta {
		if err := dec.Handle(m); err != nil {
			return nil, err
		}
	}
	for _, d := range msg.Data {
		pkt := x.inj.Apply(d)
		if pkt == nil {
			continue
		}
		if err := dec.Handle(pkt); err != nil {
			return nil, err
		}
	}
	return dec, nil
}

func (x *injectExchanger) collect(c *layerCounts) {
	c.trimmedCoords += int64(x.stats.TrimmedCoords)
	c.totalCoords += int64(x.stats.TotalCoords)
	c.gradientRows += int64(x.msgID-1) * int64(rowsOf(x.dim, x.cfg.RowSize))
	c.addCodec(x.reg.Snapshot())
}

// fabricExchanger is ddp.NetTrainer's exchange: one all-reduce per round
// over a live fat tree whose trimming switches decide each packet's fate.
type fabricExchanger struct {
	fc      ddp.FabricConfig
	dim     int
	rowSize int
	tr      *tracer
	reg     *obs.Registry
	sim     *netsim.Sim
	topo    *netsim.Topology
	workers []*collective.Worker
	stacks  []*transport.Stack
	msgBase uint32
}

func newFabricExchanger(cfg ddp.Config, fc ddp.FabricConfig, dim int, tr *tracer, reg *obs.Registry) (*fabricExchanger, error) {
	sim := netsim.NewSim()
	topo, err := netsim.NewFatTree(sim, netsim.FatTreeConfig{
		K: fc.FatTreeK, HostLink: fc.Link, Queue: fc.Queue,
	}, netsim.WithRegistry(reg))
	if err != nil {
		return nil, err
	}
	x := &fabricExchanger{fc: fc, dim: dim, rowSize: cfg.RowSize, tr: tr, reg: reg, sim: sim, topo: topo, msgBase: 1}
	for i := 0; i < cfg.Workers; i++ {
		stack, err := transport.New(topo.Hosts[i])
		if err != nil {
			return nil, err
		}
		w, err := collective.New(i, stack, collective.WithConfig(core.Config{
			Params: *cfg.Scheme, RowSize: cfg.RowSize,
		}), collective.WithMode(fc.Mode))
		if err != nil {
			return nil, err
		}
		w.Deadline = fc.RoundTimeout
		tr.wrap(stack)
		x.workers = append(x.workers, w)
		x.stacks = append(x.stacks, stack)
	}
	return x, nil
}

func (x *fabricExchanger) exchange(epoch uint64, grads [][]float32) ([]float32, float64, error) {
	n := len(x.workers)
	results := make([][]float32, n)
	var lastDone netsim.Time
	var opErr error
	start := x.sim.Now()
	id := x.tr.begin("collective.post")
	err := collective.AllReduce(x.fc.Algorithm, epoch, x.msgBase, x.workers, grads,
		func(rank int, avg []float32, at netsim.Time) {
			results[rank] = avg
			if at > lastDone {
				lastDone = at
			}
		},
		func(rank int, err error) {
			if opErr == nil {
				opErr = fmt.Errorf("rank %d: %w", rank, err)
			}
		})
	x.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = x.tr.begin("netsim.run")
	x.sim.RunUntil(start + x.fc.RoundTimeout)
	x.tr.end(id)
	x.msgBase += collective.MsgSpan(x.fc.Algorithm, n)
	if opErr != nil {
		return nil, 0, opErr
	}
	for rank, got := range results {
		if got == nil {
			return nil, 0, fmt.Errorf("rank %d never completed", rank)
		}
	}
	avg := make([]float32, x.dim)
	for _, g := range results {
		vecmath.Add(avg, g)
	}
	vecmath.Scale(avg, 1/float32(n))
	return avg, (lastDone - start).Seconds(), nil
}

func (x *fabricExchanger) collect(c *layerCounts) {
	c.events += int64(x.sim.Processed)
	c.addFabric(x.topo, x.stacks)
	for _, w := range x.workers {
		c.trimmedCoords += int64(w.AggStats.TrimmedCoords)
		c.totalCoords += int64(w.AggStats.TotalCoords)
	}
	ops := int64(x.msgBase-1) / int64(collective.MsgSpan(x.fc.Algorithm, len(x.workers)))
	c.gradientRows += ops * int64(len(x.workers)) * int64(rowsOf(x.dim, x.rowSize))
	c.addCodec(x.reg.Snapshot())
}

func allFinite(v []float32) bool {
	for _, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// rowsOf is the number of codec rows a dim-coordinate gradient splits
// into.
func rowsOf(dim, rowSize int) int { return (dim + rowSize - 1) / rowSize }
