package exp

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"trimgrad/internal/obs"
)

// chaosExport runs the chaos experiment once against a fresh registry and
// returns the JSONL export of everything the instrumented stack emitted.
func chaosExport(t *testing.T, seed uint64) []byte {
	t.Helper()
	r := obs.New()
	o := Options{Quick: true, Seed: seed, Obs: r}
	if err := runChaos(io.Discard, o); err != nil {
		t.Fatalf("runChaos: %v", err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestChaosMetricsDeterminism pins the paper-critical reproducibility
// property end to end: two same-seed chaos runs — fault injection, link
// flaps, retransmissions and all — must emit byte-identical telemetry
// exports. Any wall-clock read, map-order dependence, or unseeded
// randomness anywhere in the instrumented stack breaks this. The seed-7
// export must also match testdata/chaos_seed7.jsonl byte for byte, so a
// refactor of how the telemetry is collected cannot change what it says.
// Regenerate that file only for an intended telemetry change:
//
//	go run ./cmd/trimbench -exp chaos -quick -seed 7 -metrics internal/exp/testdata/chaos_seed7.jsonl
func TestChaosMetricsDeterminism(t *testing.T) {
	a := chaosExport(t, 7)
	b := chaosExport(t, 7)
	if len(a) == 0 {
		t.Fatal("chaos run exported no telemetry")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed chaos runs exported different telemetry:\nrun1 %d bytes, run2 %d bytes", len(a), len(b))
	}
	golden, err := os.ReadFile("testdata/chaos_seed7.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, golden) {
		t.Fatalf("seed-7 chaos telemetry (%d bytes) differs from testdata/chaos_seed7.jsonl (%d bytes)", len(a), len(golden))
	}
	// The export must cover all three layers the chaos cells exercise.
	got := string(a)
	for _, want := range []string{
		`"name":"netsim.port.`,
		`"name":"transport.h`,
		`"name":"core.decode.`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("export missing %s metrics", want)
		}
	}
	// And a different seed must actually change the telemetry (guards
	// against the export accidentally ignoring the run).
	c := chaosExport(t, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different-seed chaos runs exported identical telemetry")
	}
}
