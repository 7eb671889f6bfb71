package collective

import (
	"fmt"
	"strings"
	"testing"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
	"trimgrad/internal/transport"
)

// The registry's netsim and transport counters are views read from the
// stats structs at snapshot time. The tables below are the oracle: each
// exported name maps to the struct field it must equal.

var portFields = map[string]func(netsim.PortStats) int{
	"enqueued_total":      func(s netsim.PortStats) int { return s.Enqueued },
	"transmitted_total":   func(s netsim.PortStats) int { return s.Transmitted },
	"dropped_total":       func(s netsim.PortStats) int { return s.Dropped },
	"dropped_bytes_total": func(s netsim.PortStats) int { return s.DroppedBytes },
	"trimmed_total":       func(s netsim.PortStats) int { return s.Trimmed },
	"ecn_marked_total":    func(s netsim.PortStats) int { return s.ECNMarked },
	"down_drops_total":    func(s netsim.PortStats) int { return s.DownDrops },
	"aggregated_total":    func(s netsim.PortStats) int { return s.Aggregated },
	"stale_drops_total":   func(s netsim.PortStats) int { return s.StaleDrops },
}

var faultFields = map[string]func(netsim.FaultStats) int{
	"corrupted_total":     func(s netsim.FaultStats) int { return s.Corrupted },
	"duplicated_total":    func(s netsim.FaultStats) int { return s.Duplicated },
	"reordered_total":     func(s netsim.FaultStats) int { return s.Reordered },
	"burst_dropped_total": func(s netsim.FaultStats) int { return s.BurstDropped },
}

var stackFields = map[string]func(transport.Stats) int{
	"data_sent_total":        func(s transport.Stats) int { return s.DataSent },
	"data_delivered_total":   func(s transport.Stats) int { return s.DataDelivered },
	"trimmed_received_total": func(s transport.Stats) int { return s.TrimmedReceived },
	"retransmits_total":      func(s transport.Stats) int { return s.Retransmits },
	"timeouts_total":         func(s transport.Stats) int { return s.Timeouts },
	"acks_sent_total":        func(s transport.Stats) int { return s.AcksSent },
	"nacks_sent_total":       func(s transport.Stats) int { return s.NacksSent },
	"failures_total":         func(s transport.Stats) int { return s.Failures },
	"rejected_packets_total": func(s transport.Stats) int { return s.RejectedPackets },
	"dups_received_total":    func(s transport.Stats) int { return s.DupsReceived },
	"stale_drops_total":      func(s transport.Stats) int { return s.StaleDrops },
}

// checkTelemetryView requires every netsim.port.*, netsim.fault.* and
// transport.h* counter in snap to equal its stats-struct field, and every
// port, fault injector and stack of the run to be exported in full. It
// returns the per-field totals across the whole fabric.
func checkTelemetryView(t *testing.T, snap obs.Snapshot, topo *netsim.Topology, ws []*Worker) map[string]int64 {
	t.Helper()
	port := func(a, b netsim.NodeID) *netsim.Port {
		for _, sw := range topo.Switches() {
			if sw.ID() == a {
				return sw.Port(b)
			}
		}
		for _, h := range topo.Hosts {
			if h.ID() == a {
				return h.Uplink() // a host's one port leads to its rack switch
			}
		}
		return nil
	}
	stack := func(id netsim.NodeID) *transport.Stack {
		for _, w := range ws {
			if w.Stack.Host().ID() == id {
				return w.Stack
			}
		}
		return nil
	}
	var ports, faulted int
	for _, sw := range topo.Switches() {
		for _, p := range sw.Ports() {
			ports++
			if p.Faults() != nil {
				faulted++
			}
		}
	}
	for _, h := range topo.Hosts {
		if p := h.Uplink(); p != nil {
			ports++
			if p.Faults() != nil {
				faulted++
			}
		}
	}

	totals := map[string]int64{}
	var seenPort, seenFault, seenStack int
	for _, c := range snap.Counters {
		var want int
		switch {
		case strings.HasPrefix(c.Name, "netsim.port."):
			ends, field := splitMetric(t, c.Name, "netsim.port.")
			a, b := parseEnds(t, c.Name, ends)
			p, f := port(a, b), portFields[field]
			if p == nil || f == nil {
				t.Errorf("%s: no port or PortStats field behind it", c.Name)
				continue
			}
			want = f(p.Stats)
			seenPort++
		case strings.HasPrefix(c.Name, "netsim.fault."):
			ends, field := splitMetric(t, c.Name, "netsim.fault.")
			a, b := parseEnds(t, c.Name, ends)
			p, f := port(a, b), faultFields[field]
			if p == nil || p.Faults() == nil || f == nil {
				t.Errorf("%s: no fault injector or FaultStats field behind it", c.Name)
				continue
			}
			want = f(p.Faults().Stats)
			seenFault++
		case strings.HasPrefix(c.Name, "transport.h"):
			host, field := splitMetric(t, c.Name, "transport.h")
			var id netsim.NodeID
			if _, err := fmt.Sscanf(host, "%d", &id); err != nil {
				t.Fatalf("%s: bad host id: %v", c.Name, err)
			}
			s, f := stack(id), stackFields[field]
			if s == nil || f == nil {
				t.Errorf("%s: no stack or transport.Stats field behind it", c.Name)
				continue
			}
			want = f(s.Stats)
			seenStack++
		default:
			continue
		}
		if c.Value != int64(want) {
			t.Errorf("%s = %d, stats struct says %d", c.Name, c.Value, want)
		}
		_, field := splitMetric(t, c.Name, "")
		totals[field] += c.Value
	}
	if want := ports * len(portFields); seenPort != want {
		t.Errorf("exported %d port counters, want %d (%d ports)", seenPort, want, ports)
	}
	if want := faulted * len(faultFields); seenFault != want {
		t.Errorf("exported %d fault counters, want %d (%d injectors)", seenFault, want, faulted)
	}
	if want := len(ws) * len(stackFields); seenStack != want {
		t.Errorf("exported %d transport counters, want %d (%d stacks)", seenStack, want, len(ws))
	}
	return totals
}

// splitMetric splits "<prefix><ends>.<field>" at its last dot.
func splitMetric(t *testing.T, name, prefix string) (ends, field string) {
	t.Helper()
	rest := strings.TrimPrefix(name, prefix)
	i := strings.LastIndexByte(rest, '.')
	if i < 0 {
		t.Fatalf("%s: no field suffix", name)
	}
	return rest[:i], rest[i+1:]
}

func parseEnds(t *testing.T, name, ends string) (a, b netsim.NodeID) {
	t.Helper()
	if _, err := fmt.Sscanf(ends, "%d->%d", &a, &b); err != nil {
		t.Fatalf("%s: bad port ends %q: %v", name, ends, err)
	}
	return a, b
}

// requireNonzero guards against a vacuous pass: the run must actually
// have exercised the named counters.
func requireNonzero(t *testing.T, totals map[string]int64, fields ...string) {
	t.Helper()
	for _, f := range fields {
		if totals[f] == 0 {
			t.Errorf("no %s events in the run; the check would be vacuous", f)
		}
	}
}

// TestTelemetryViewMatchesStats pins the single source of truth for
// fabric and transport telemetry: after a chaos all-reduce on a star and
// after a 2-shard fat-tree all-reduce, every exported port, fault and
// transport counter equals the stats-struct field it is read from.
func TestTelemetryViewMatchesStats(t *testing.T) {
	t.Run("star-chaos", func(t *testing.T) {
		const n = 4
		sim := netsim.NewSim()
		star := netsim.NewStar(sim, n, fast(),
			netsim.QueueConfig{CapacityBytes: 16 << 10, Mode: netsim.TrimOverflow},
			netsim.WithRegistry(obs.New()))
		cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}
		ws := make([]*Worker, n)
		for i := range ws {
			w, err := NewWorker(i, transport.NewStack(star.Hosts[i], cfg), coreCfg(quant.RHT), Trimmable)
			if err != nil {
				t.Fatal(err)
			}
			w.Deadline = 100 * netsim.Millisecond
			ws[i] = w
		}
		star.Net.InjectFaults(0, netsim.SwitchIDBase, netsim.FaultConfig{
			Seed: 7, CorruptRate: 0.1, CorruptBits: 4, DuplicateRate: 0.1,
			ReorderRate: 0.1, ReorderDelay: 50 * netsim.Microsecond,
			GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1,
		})
		star.Net.FlapLink(1, netsim.SwitchIDBase, 100*netsim.Microsecond, 300*netsim.Microsecond)
		grads := make([][]float32, n)
		for i := range grads {
			grads[i] = gaussianGrad(uint64(i)+1, 8192)
		}
		if err := AllReduce(AlgDirect, 1, 100, ws, grads,
			func(int, []float32, netsim.Time) {}, func(int, error) {}); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(netsim.Second)
		totals := checkTelemetryView(t, sim.Obs().Snapshot(), star, ws)
		requireNonzero(t, totals, "enqueued_total", "trimmed_total", "down_drops_total",
			"corrupted_total", "duplicated_total", "reordered_total", "burst_dropped_total",
			"retransmits_total", "rejected_packets_total", "trimmed_received_total")
	})
	t.Run("fattree-2-shards", func(t *testing.T) {
		q := deepQ()
		q.AggregateTrimmable = true
		cfg := transport.Config{RTO: 100 * netsim.Microsecond, MaxRetries: 16}
		eng, topo, ws := shardedFatTreeWorkers(t, 2, q, cfg, quant.Sign)
		defer eng.Close()
		topo.Net.InjectFaults(0, netsim.SwitchIDBase, netsim.FaultConfig{
			Seed: 7, GoodToBad: 0.05, BadToGood: 0.3, LossBad: 1,
		})
		grads := make([][]float32, len(ws))
		for i := range grads {
			grads[i] = intGrad(uint64(i)+1, 1024)
		}
		if err := AllReduce(AlgDirect, 3, 100, ws, grads,
			func(int, []float32, netsim.Time) {}, func(int, error) {}); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(netsim.Second)
		totals := checkTelemetryView(t, eng.Snapshot(), topo, ws)
		requireNonzero(t, totals, "enqueued_total", "transmitted_total", "burst_dropped_total",
			"retransmits_total", "data_delivered_total")
	})
}
