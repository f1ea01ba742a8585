package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cachesync/internal/addr"
	"cachesync/internal/core"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5},
		{Proc: 1, Kind: Write, Addr: 9, Value: 42},
		{Proc: 0, Kind: Lock, Addr: 0},
		{Proc: 0, Kind: Unlock, Addr: 0, Value: 7},
		{Proc: 2, Kind: Compute, Cycles: 100},
		{Proc: 1, Kind: Atomic, Addr: 16},
		{Proc: 1, Kind: ReadEx, Addr: 20},
	}}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != len(in.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(out.Events), len(in.Events))
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
	if out.Procs() != 3 {
		t.Errorf("Procs() = %d, want 3", out.Procs())
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	src := "# a trace\n\n0 R 4\n   \n# done\n1 W 8 3\n"
	tr, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("got %d events", len(tr.Events))
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"0 R",     // too few fields
		"x R 4",   // bad proc
		"-1 R 4",  // negative proc
		"0 Z 4",   // unknown kind
		"0 W 4",   // write missing value
		"0 W x 1", // bad address
		"0 W 4 x", // bad value
		"0 C x",   // bad cycles
		"0 RW 4",  // kind too long
	}
	for _, src := range bad {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%q): want error", src)
		}
	}
}

// Property: any generated trace round-trips through text exactly.
func TestRoundTripProperty(t *testing.T) {
	kinds := []Kind{Read, ReadEx, Write, Lock, Unlock, Atomic, Compute}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &Trace{}
		for i := 0; i < int(n%50); i++ {
			e := Event{
				Proc: rng.Intn(8),
				Kind: kinds[rng.Intn(len(kinds))],
			}
			switch e.Kind {
			case Compute:
				e.Cycles = int64(rng.Intn(1000))
			case Write, Unlock:
				e.Addr = addr.Addr(rng.Intn(4096))
				e.Value = rng.Uint64()
			default:
				e.Addr = addr.Addr(rng.Intn(4096))
			}
			e.Class = interconnect.Class(rng.Intn(4))
			in.Events = append(in.Events, e)
		}
		var buf bytes.Buffer
		if in.Encode(&buf) != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(out.Events) != len(in.Events) {
			return false
		}
		for i := range in.Events {
			if in.Events[i] != out.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestProgramsReplay(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Proc: 0, Kind: Write, Addr: 4, Value: 11},
		{Proc: 0, Kind: Lock, Addr: 0},
		{Proc: 0, Kind: Unlock, Addr: 0, Value: 1},
		{Proc: 1, Kind: Compute, Cycles: 200},
		{Proc: 1, Kind: Read, Addr: 4},
		{Proc: 1, Kind: Atomic, Addr: 8},
	}}
	s := sim.New(sim.DefaultConfig(core.Protocol{}))
	if err := s.RunPrograms(tr.Programs(4)); err != nil {
		t.Fatal(err)
	}
	// The write must have landed and the RMW incremented word 8.
	if v := s.Caches[0].Data(1); v == nil || v[0] != 11 {
		t.Errorf("replayed write missing: %v", v)
	}
	found := false
	for _, c := range s.Caches {
		if v, ok := c.ReadWord(8); ok && v == 1 {
			found = true
		}
	}
	if !found && s.Mem.ReadWord(8) != 1 {
		t.Error("replayed atomic increment missing")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5},
		{Proc: 3, Kind: Write, Addr: 1 << 40, Value: 1<<63 + 7},
		{Proc: 1, Kind: Lock, Addr: 0},
		{Proc: 1, Kind: Unlock, Addr: 0, Value: 2},
		{Proc: 2, Kind: Compute, Cycles: 123456},
		{Proc: 0, Kind: Atomic, Addr: 99},
		{Proc: 0, Kind: ReadEx, Addr: 12},
	}}
	var buf bytes.Buffer
	if err := in.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != len(in.Events) {
		t.Fatalf("lost events: %d vs %d", len(out.Events), len(in.Events))
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := DecodeBinary(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeBinary(strings.NewReader("CS")); err == nil {
		t.Error("short magic accepted")
	}
	if _, err := DecodeBinary(strings.NewReader("CSTR\x09")); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated event.
	var buf bytes.Buffer
	tr := &Trace{Events: []Event{{Proc: 0, Kind: Write, Addr: 4, Value: 1}}}
	if err := tr.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := DecodeBinary(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated event accepted")
	}
	// Unknown kind.
	bad := &Trace{Events: []Event{{Proc: 0, Kind: Kind('Z'), Addr: 1}}}
	if err := bad.EncodeBinary(&buf); err == nil {
		t.Error("unknown kind encoded")
	}
}

// Property: the binary codec round-trips arbitrary generated traces
// and is never larger than ~2x the event count in words.
func TestBinaryRoundTripProperty(t *testing.T) {
	kinds := []Kind{Read, ReadEx, Write, Lock, Unlock, Atomic, Compute}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &Trace{}
		for i := 0; i < int(n%60); i++ {
			e := Event{Proc: rng.Intn(16), Kind: kinds[rng.Intn(len(kinds))]}
			switch e.Kind {
			case Compute:
				e.Cycles = int64(rng.Intn(1 << 20))
			case Write, Unlock:
				e.Addr = addr.Addr(rng.Uint64() >> 16)
				e.Value = rng.Uint64()
			default:
				e.Addr = addr.Addr(rng.Uint64() >> 16)
			}
			e.Class = interconnect.Class(rng.Intn(4))
			in.Events = append(in.Events, e)
		}
		var buf bytes.Buffer
		if in.EncodeBinary(&buf) != nil {
			return false
		}
		out, err := DecodeBinary(&buf)
		if err != nil || len(out.Events) != len(in.Events) {
			return false
		}
		for i := range in.Events {
			if in.Events[i] != out.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
