package trace

import (
	"bytes"
	"strings"
	"testing"

	"cachesync/internal/aquarius"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
)

// classTrace mixes classified and unclassified events of every kind
// that can carry a class.
func classedTrace() *Trace {
	return &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5, Class: interconnect.Instr},
		{Proc: 0, Kind: Write, Addr: 9, Value: 42, Class: interconnect.Data},
		{Proc: 1, Kind: ReadEx, Addr: 12, Class: interconnect.Data},
		{Proc: 1, Kind: Read, Addr: 64, Class: interconnect.Sync},
		{Proc: 2, Kind: Lock, Addr: 0},
		{Proc: 2, Kind: Unlock, Addr: 0, Value: 1},
		{Proc: 3, Kind: Compute, Cycles: 50},
		{Proc: 3, Kind: Read, Addr: 7}, // unclassified stays unclassified
	}}
}

// TestClassTextRoundTrip: the optional trailing class token survives
// the text codec, and its absence decodes to Unclassified.
func TestClassTextRoundTrip(t *testing.T) {
	in := classedTrace()
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "0 R 5 instr") || !strings.Contains(text, "0 W 9 42 data") {
		t.Fatalf("encoded text missing class tokens:\n%s", text)
	}
	out, err := Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
}

// TestClassBinaryRoundTrip: classes survive the binary codec, which
// upgrades to version 2 only when an event is classified.
func TestClassBinaryRoundTrip(t *testing.T) {
	in := classedTrace()
	var buf bytes.Buffer
	if err := in.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != binaryVersion2 {
		t.Fatalf("classified trace encoded as version %d, want %d", v, binaryVersion2)
	}
	out, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
}

// TestUnclassifiedTraceStaysVersion1: a trace with no classes encodes
// byte-identically to the classic version-1 stream.
func TestUnclassifiedTraceStaysVersion1(t *testing.T) {
	in := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5},
		{Proc: 1, Kind: Write, Addr: 9, Value: 3},
	}}
	var buf bytes.Buffer
	if err := in.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != binaryVersion {
		t.Errorf("unclassified trace encoded as version %d, want %d", v, binaryVersion)
	}
	var txt bytes.Buffer
	if err := in.Encode(&txt); err != nil {
		t.Fatal(err)
	}
	if got, want := txt.String(), "0 R 5\n1 W 9 3\n"; got != want {
		t.Errorf("text form %q, want %q", got, want)
	}
}

// TestClassDecodeErrors: malformed class annotations are rejected in
// both codecs rather than silently dropped.
func TestClassDecodeErrors(t *testing.T) {
	for _, src := range []string{
		"0 R 5 bogus",
		"0 R 5 data extra",
		"0 W 5 1 data extra",
	} {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%q): want error", src)
		}
	}
	if _, err := DecodeBinary(strings.NewReader("CSTR\x02R\x00\x05\x09")); err == nil {
		t.Error("out-of-range class byte accepted")
	}
	if _, err := DecodeBinary(strings.NewReader("CSTR\x02R\x00\x05")); err == nil {
		t.Error("missing class byte accepted")
	}
}

// TestClassifiedReplayOnTwoTier: a fully classified trace replays on a
// Routed two-tier machine, with each class routed to its interconnect;
// the same trace replays unchanged on a classic one-tier machine.
func TestClassifiedReplayOnTwoTier(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 4096, Class: interconnect.Instr},
		{Proc: 0, Kind: Lock, Addr: 0},
		{Proc: 0, Kind: Write, Addr: 900, Value: 7, Class: interconnect.Data},
		{Proc: 0, Kind: Unlock, Addr: 0, Value: 1},
		{Proc: 1, Kind: Compute, Cycles: 40},
		{Proc: 1, Kind: Read, Addr: 64, Class: interconnect.Sync},
	}}
	cfg := aquarius.DefaultConfig(2)
	cfg.Routed = true
	a := aquarius.New(cfg)
	if err := a.RunPrograms(tr.Programs(2)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if got := st.Get("route.instr"); got != 1 {
		t.Errorf("route.instr = %d, want 1", got)
	}
	if got := st.Get("route.data"); got != 1 {
		t.Errorf("route.data = %d, want 1", got)
	}
	if st.Get("route.sync") == 0 {
		t.Error("route.sync = 0, want > 0 (lock traffic)")
	}

	// One-tier replay of the same classified trace still works: classes
	// are inert without a lower tier.
	s := sim.New(cfg.Sync)
	if err := s.RunPrograms(tr.Programs(2)); err != nil {
		t.Fatal(err)
	}
}
