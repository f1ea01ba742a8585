package simrun

// The spin goldens freeze simrun.Run's whole rendered output (bus log,
// stats, checker verdict) for the wait-heavy workloads: every
// test-and-test-and-set, flag and barrier wait these runs make is a
// busy-wait loop, so the digests pin those loops' exact cycles and
// counters on invalidate, update and write-through protocols, on the
// one-tier and the routed two-tier machine. Regenerate after an
// intentional behaviour change with
//
//	go test ./internal/simrun/ -run TestSpinGoldens -update

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/spin_goldens.txt")

const spinGoldenFile = "testdata/spin_goldens.txt"

// spinGoldenConfigs lists the configurations the spin goldens pin.
func spinGoldenConfigs() []Config {
	type machine struct{ tiers, remote, buses int }
	machines := []machine{{1, 0, 1}, {2, 0, 1}, {2, 64, 1}, {2, 256, 1}}
	var out []Config
	for _, proto := range []string{"bitar", "illinois", "dragon", "rudolph", "writethrough"} {
		tas := "tas"
		if proto == "writethrough" {
			tas = "tasmemory"
		}
		for _, wl := range []string{"lock", "lockdata", "pc", "queues"} {
			for _, scheme := range []string{"ttas", tas} {
				ms := machines
				if wl == "lock" {
					ms = append(ms[:len(ms):len(ms)], machine{1, 0, 2})
				}
				for _, m := range ms {
					out = append(out, Config{Protocol: proto, Workload: wl, Scheme: scheme,
						Tiers: m.tiers, RemoteCycles: m.remote, Buses: m.buses, LogN: 1 << 20}.Normalize())
				}
			}
		}
	}
	return out
}

func spinGoldenKey(c Config) string {
	return fmt.Sprintf("%s/%s/%s/tiers%d/remote%d/buses%d",
		c.Protocol, c.Workload, c.Scheme, c.Tiers, c.RemoteCycles, c.Buses)
}

// TestSpinGoldens checks every wait-heavy configuration's output
// digest against the committed goldens.
func TestSpinGoldens(t *testing.T) {
	want := map[string]string{}
	if !*update {
		f, err := os.Open(spinGoldenFile)
		if err != nil {
			t.Fatalf("%v (create it with -update)", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), " "); ok {
				want[k] = v
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, cfg := range spinGoldenConfigs() {
		key := spinGoldenKey(cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !res.Pass {
			t.Errorf("%s: checker failed", key)
		}
		sum := sha256.Sum256([]byte(res.Output))
		d := fmt.Sprintf("cycles=%d sha256=%s", res.Cycles, hex.EncodeToString(sum[:]))
		got = append(got, key+" "+d)
		if !*update && d != want[key] {
			t.Errorf("%s:\n  got  %s\n  want %s", key, d, want[key])
		}
	}
	if *update {
		if err := os.WriteFile(spinGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, the suite runs %d", spinGoldenFile, len(want), len(got))
	}
}
