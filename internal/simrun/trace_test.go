package simrun

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestTraceReplayGolden pins simrun.Run's whole rendered output — bus
// log, stats and checker verdict — for trace replay of a classified
// trace on the one-tier and the routed two-tier machine.
func TestTraceReplayGolden(t *testing.T) {
	for _, c := range []struct {
		tiers int
		want  string
	}{
		{1, "f684e0e7a800082af53de658ec0ff7b0997e3ebf0dc540812c35bb16c3bd211a"},
		{2, "d026933791262b2ad0544d40bfdcd34a19ec34530744ed53d7a66a5eb4848052"},
	} {
		cfg := Config{Workload: "trace", TraceFile: "testdata/classified.trace",
			Tiers: c.tiers, LogN: 200}.Normalize()
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("tiers=%d: %v", c.tiers, err)
		}
		if !res.Pass {
			t.Errorf("tiers=%d: checker failed:\n%s", c.tiers, res.Output)
		}
		sum := sha256.Sum256([]byte(res.Output))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("tiers=%d: output sha256 %s, want %s\n%s", c.tiers, got, c.want, res.Output)
		}
	}
}
