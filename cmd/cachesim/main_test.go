package main

import (
	"io"
	"strings"
	"testing"

	"cachesync/internal/runner"
	"cachesync/internal/simrun"
)

func baseTestCfg() simrun.Config {
	return simrun.Config{
		Protocol: "bitar", Procs: 4, Ways: 64, BlockWords: 4,
		Buses: 1, Workload: "mixed", Ops: 300, Seed: 1,
	}
}

func TestCleanRunPassesThroughRunner(t *testing.T) {
	res, err := runner.Run(jobs(baseTestCfg(), []string{"bitar", "illinois"}), runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPass() {
		t.Fatalf("clean run reported violations:\n%s", res.Output())
	}
	if code := finishCode(res); code != 0 {
		t.Fatalf("clean run exit code = %d", code)
	}
	for _, proto := range []string{"protocol=bitar", "protocol=illinois"} {
		if !strings.Contains(res.Output(), proto) {
			t.Errorf("merged output missing %s", proto)
		}
	}
}

// TestInjectedViolationExitsNonzeroThroughRunner is the regression
// guard for -check: a run with a seeded protocol bug must come back
// failing — and the driver must exit nonzero — even when the
// simulation runs as a runner job rather than inline in main.
func TestInjectedViolationExitsNonzeroThroughRunner(t *testing.T) {
	cfg := baseTestCfg()
	cfg.Inject = "drop-invalidate"
	res, err := runner.Run(jobs(cfg, []string{"bitar"}), runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllPass() {
		t.Fatalf("injected bug not detected:\n%s", res.Output())
	}
	if code := finishCode(res); code == 0 {
		t.Fatal("injected violation did not produce a nonzero exit code")
	}
	if !strings.Contains(res.Output(), "violation(s):") {
		t.Errorf("output does not report the violations:\n%s", res.Output())
	}
}

// TestInjectedRunMatchesDirectRun pins the runner path to the direct
// path: the artifact a job produces is exactly what runOne renders.
func TestInjectedRunMatchesDirectRun(t *testing.T) {
	cfg := baseTestCfg()
	cfg.Inject = "skip-writeback"
	direct, pass, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(jobs(cfg, []string{"bitar"}), runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output() != direct {
		t.Error("runner artifact differs from direct runOne output")
	}
	if res.AllPass() != pass {
		t.Errorf("runner pass=%v, direct pass=%v", res.AllPass(), pass)
	}
}

// finishCode evaluates finish's exit code without printing the
// merged output to the test's stdout.
func finishCode(res *runner.Result) int {
	return finish(io.Discard, io.Discard, res)
}

// TestBadSchemeExitsTwo: an unknown -scheme name, or cachelock on a
// protocol without the hardware lock, is a usage error (exit 2), not a
// run under some other scheme.
func TestBadSchemeExitsTwo(t *testing.T) {
	for _, c := range []struct{ proto, scheme, want string }{
		{"bitar", "bogus", `unknown lock scheme "bogus"`},
		{"illinois", "cachelock", `protocol "illinois" lacks`},
	} {
		cfg := baseTestCfg()
		cfg.Workload, cfg.Iters, cfg.Scheme = "lock", 5, c.scheme
		var out, errOut strings.Builder
		if code := runProtocols(&out, &errOut, cfg, []string{c.proto}, 1); code != 2 {
			t.Errorf("%s -scheme %s: exit %d, want 2\n%s", c.proto, c.scheme, code, out.String())
		}
		if !strings.Contains(errOut.String(), c.want) {
			t.Errorf("%s -scheme %s: stderr %q, want it to contain %q", c.proto, c.scheme, errOut.String(), c.want)
		}
	}
}

// TestOutOfRangeFlagsExitTwo: every config is validated before it
// runs, so out-of-range flags are usage errors (exit 2 with the
// validation message) on the per-protocol path and in sweep cells,
// instead of silently running another machine or panicking.
func TestOutOfRangeFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*simrun.Config)
		want string
	}{
		{"tiers 3", func(c *simrun.Config) { c.Tiers = 3 }, "tiers must be 1 or 2, got 3"},
		{"ops -5", func(c *simrun.Config) { c.Ops = -5 }, "ops -5 out of range"},
		{"procs 0", func(c *simrun.Config) { c.Procs = 0 }, "procs 0 out of range"},
	} {
		cfg := baseTestCfg()
		cfg.Tiers = 1
		c.edit(&cfg)
		var out, errOut strings.Builder
		if code := runProtocols(&out, &errOut, cfg, []string{"bitar"}, 1); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", c.name, code, out.String())
		}
		if !strings.Contains(errOut.String(), c.want) || out.Len() != 0 {
			t.Errorf("%s: stderr %q (stdout %d bytes), want only %q", c.name, errOut.String(), out.Len(), c.want)
		}
	}
	// A sweep cell is validated too: -tiers 3 with -sweep-remote.
	cfg := baseTestCfg()
	cfg.Tiers = 3
	var out, errOut strings.Builder
	if code := runSweep(&out, &errOut, cfg, []string{"bitar"}, []int{2}, []int{0, 16}, 1); code != 2 ||
		!strings.Contains(errOut.String(), "tiers must be 1 or 2, got 3") {
		t.Errorf("sweep with tiers 3: exit %d, stderr %q", code, errOut.String())
	}
}
