package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/transport"
)

// layerCounts are the work counts a job's layers keep, read from their
// public Stats fields and, in the traced run, from the obs registry
// attached to them.
type layerCounts struct {
	rounds, epochs int64
	simComm        float64 // simulated exchange seconds, summed

	events      int64 // simulator events executed
	trimmedPkts int64 // packets trimmed at switch ports
	droppedPkts int64 // packets dropped at switch ports
	queueMax    int64 // deepest switch queue seen, bytes (a max, not a sum)

	retransmits, timeouts   int64
	dataSent, dataDelivered int64

	encodedRows  int64 // codec rows encoded (core.encode.rows_total)
	gradientRows int64 // distinct gradient rows the rounds produced
	packets      int64 // packets encoded (core.encode.packets_total)
	wireBytes    int64 // encoded data bytes (core.encode.bytes_total)

	trimmedCoords, totalCoords int64
}

func (c *layerCounts) add(o layerCounts) {
	c.rounds += o.rounds
	c.epochs += o.epochs
	c.simComm += o.simComm
	c.events += o.events
	c.trimmedPkts += o.trimmedPkts
	c.droppedPkts += o.droppedPkts
	if o.queueMax > c.queueMax {
		c.queueMax = o.queueMax
	}
	c.retransmits += o.retransmits
	c.timeouts += o.timeouts
	c.dataSent += o.dataSent
	c.dataDelivered += o.dataDelivered
	c.encodedRows += o.encodedRows
	c.gradientRows += o.gradientRows
	c.packets += o.packets
	c.wireBytes += o.wireBytes
	c.trimmedCoords += o.trimmedCoords
	c.totalCoords += o.totalCoords
}

// addFabric reads the switch ports' and the stacks' Stats.
func (c *layerCounts) addFabric(topo *netsim.Topology, stacks []*transport.Stack) {
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			c.trimmedPkts += int64(p.Stats.Trimmed)
			c.droppedPkts += int64(p.Stats.Dropped)
			if q := int64(p.Stats.MaxQueueBytes); q > c.queueMax {
				c.queueMax = q
			}
		}
	}
	for _, s := range stacks {
		c.retransmits += int64(s.Stats.Retransmits)
		c.timeouts += int64(s.Stats.Timeouts)
		c.dataSent += int64(s.Stats.DataSent)
		c.dataDelivered += int64(s.Stats.DataDelivered)
	}
}

// addCodec reads the encoder counters from a registry snapshot (empty in
// the untraced run, which attaches no registry).
func (c *layerCounts) addCodec(s obs.Snapshot) {
	c.encodedRows += s.Counter("core.encode.rows_total")
	c.packets += s.Counter("core.encode.packets_total")
	c.wireBytes += s.Counter("core.encode.bytes_total")
}

// hashFloats feeds the bit patterns of v into h: digests over them prove
// that two runs produced the same bytes.
func hashFloats(h hash.Hash64, v []float32) {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	h.Write(b) // a hash.Hash never returns an error
}

func digest(v []float32) uint64 {
	h := fnv.New64a()
	hashFloats(h, v)
	return h.Sum64()
}

// per divides a total by a count, reading 0 when nothing was counted.
func per(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// layerMetrics folds a traced phase into the per-layer metrics: span time
// per round (or per epoch), self time, and the layers' counts per round.
// A metric whose layer the workload does not run reads 0.
func layerMetrics(tr *tracer, c layerCounts) map[string]float64 {
	tot := totals(tr.spans)
	self := selfTimes(tr.spans, tr.hooks)
	hooks := hookTotals(tr.hooks)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	perRound := func(ns int64) float64 { return per(ms(ns), c.rounds) }
	m := map[string]float64{
		"ml.forward_ms":  perRound(tot["ml.forward"]),
		"ml.backward_ms": perRound(tot["ml.backward"]),
		"ml.step_ms":     perRound(tot["ml.step"]),
		"ml.eval_ms":     per(ms(tot["ml.eval"]), c.epochs),

		"core.encode_ms":            perRound(tot["core.encode"]),
		"core.handle_ms":            perRound(tot["core.handle"]),
		"core.decode_ms":            perRound(tot["core.decode"]),
		"core.packets_per_round":    per(float64(c.packets), c.rounds),
		"core.wire_bytes_per_round": per(float64(c.wireBytes), c.rounds),
		"core.trim_frac":            per(float64(c.trimmedCoords), c.totalCoords),
		"core.encodes_per_gradient": per(float64(c.encodedRows), c.gradientRows),

		"collective.post_ms":     perRound(tot["collective.post"]),
		"collective.deliver_ms":  perRound(hooks[hookDeliver]),
		"collective.complete_ms": perRound(hooks[hookComplete]),

		"netsim.run_ms":                 perRound(tot["netsim.run"]),
		"netsim.self_ms":                0,
		"netsim.events_per_round":       per(float64(c.events), c.rounds),
		"netsim.events_per_s":           0,
		"netsim.trimmed_pkts_per_round": per(float64(c.trimmedPkts), c.rounds),
		"netsim.dropped_pkts_per_round": per(float64(c.droppedPkts), c.rounds),
		"netsim.queue_bytes_max":        float64(c.queueMax),

		"transport.retransmits_per_round": per(float64(c.retransmits), c.rounds),
		"transport.timeouts_per_round":    per(float64(c.timeouts), c.rounds),
		"transport.goodput_frac":          per(float64(c.dataDelivered), c.dataSent),

		"ddp.batches_ms":  per(ms(tot["ddp.batches"]), c.epochs),
		"ddp.sim_comm_ms": per(c.simComm*1e3, c.rounds),
	}
	if run := tot["netsim.run"]; run > 0 {
		m["netsim.events_per_s"] = float64(c.events) / (float64(run) / 1e9)
		if !tr.concurrent {
			m["netsim.self_ms"] = perRound(self["netsim.run"])
		}
	}
	return m
}
