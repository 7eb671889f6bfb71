package trimgrad

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"trimgrad/internal/core"
	"trimgrad/internal/fwht"
	"trimgrad/internal/obs"
	"trimgrad/internal/quant"
)

// encodeTimer returns a function that encodes a default-size row n times
// against the given registry and reports the wall-clock cost in ns/op.
func encodeTimer(t *testing.T, reg *obs.Registry) func(n int) float64 {
	t.Helper()
	row := benchRow(fwht.DefaultRowSize)
	enc, err := core.NewEncoderWith(
		core.WithConfig(core.Config{Params: quant.Params{Scheme: quant.RHT}, RowSize: 1 << 13}),
		core.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	id := uint32(0)
	return func(n int) float64 {
		// Start each sample with no garbage from the previous one, so a
		// collection triggered by one side is not billed to the other.
		runtime.GC()
		start := time.Now()
		for i := 0; i < n; i++ {
			id++
			if _, err := enc.Encode(1, id, row); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
}

// TestObsOverheadGuard pins the "telemetry is free when you don't look at
// it" contract of the obs redesign: encoding against a live registry must
// stay within 5% of encoding against obs.Nop. The instrumentation sits on
// the encode hot path, so a regression here (per-coordinate locking or
// accounting, anything that grows with the gradient) is a paper-relevant
// perf bug — Figure 5's encode overhead claims assume the hook costs
// ~nothing. A default-size encode emits about 100 packets for 32768
// coordinates, so a per-packet cost of tens of nanoseconds (an uncontended
// mutex) stays far below what a 5% limit can resolve.
//
// Host speed drifts between and within runs, so the two sides are never
// timed apart: each attempt takes short Nop and live samples back to back,
// alternating which goes first, and compares the median of the paired
// live/Nop ratios.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard skipped in -short mode")
	}
	const (
		limit    = 1.05
		pairs    = 31
		sampleNs = 30e6 // target length of one sample
	)
	nop := encodeTimer(t, obs.Nop)
	live := encodeTimer(t, obs.New())
	// Size a sample so it spans sampleNs, from a warm-up of each side.
	live(8)
	n := int(sampleNs/nop(8)) + 1
	// One retry absorbs a noisy first measurement on loaded CI machines.
	var ratio float64
	for attempt := 0; attempt < 2; attempt++ {
		ratios := make([]float64, pairs)
		for i := range ratios {
			var nopNs, liveNs float64
			if i%2 == 0 {
				nopNs = nop(n)
				liveNs = live(n)
			} else {
				liveNs = live(n)
				nopNs = nop(n)
			}
			ratios[i] = liveNs / nopNs
		}
		sort.Float64s(ratios)
		ratio = ratios[pairs/2]
		t.Logf("attempt %d: %d pairs of %d encodes, median live/nop ratio %.3f (range %.3f–%.3f)",
			attempt, pairs, n, ratio, ratios[0], ratios[pairs-1])
		if ratio <= limit {
			return
		}
	}
	t.Fatalf("live-registry encode is %.3fx the obs.Nop cost (limit %.2fx)", ratio, limit)
}
