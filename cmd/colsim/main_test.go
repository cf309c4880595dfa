package main

import (
	"strings"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
)

func TestMapFlagParsing(t *testing.T) {
	var m mapFlag
	if err := m.Set("1000:200:0"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("ff00:10:1,2,3"); err != nil {
		t.Fatal(err)
	}
	if len(m.entries) != 2 {
		t.Fatalf("entries=%d", len(m.entries))
	}
	e := m.entries[0]
	if e.base != 0x1000 || e.size != 0x200 || len(e.columns) != 1 || e.columns[0] != 0 {
		t.Errorf("entry 0 = %+v", e)
	}
	e = m.entries[1]
	if e.base != 0xff00 || e.size != 0x10 || len(e.columns) != 3 || e.columns[2] != 3 {
		t.Errorf("entry 1 = %+v", e)
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestMapFlagErrors(t *testing.T) {
	var m mapFlag
	for _, in := range []string{
		"1000:200",     // missing columns
		"zz:200:0",     // bad base
		"1000:zz:0",    // bad size
		"1000:200:x",   // bad column
		"1000:200:0:5", // too many parts
	} {
		if err := m.Set(in); err == nil {
			t.Errorf("Set(%q) succeeded", in)
		}
	}
}

func adaptiveTestSystem(t *testing.T, ways int) *memsys.System {
	t.Helper()
	sys, err := memsys.New(memsys.Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: ways},
		Timing:   memsys.DefaultTiming,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAttachAdaptiveManagesAllTints(t *testing.T) {
	sys := adaptiveTestSystem(t, 4)
	if _, err := sys.MapRegion(memory.Region{Name: "r", Base: 0, Size: 4096}, replacement.Of(0)); err != nil {
		t.Fatal(err)
	}
	ctl, err := attachAdaptive(sys, 16, 32, 4, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Default tint + mapped tint, every column owned by exactly one.
	if got := ctl.Specs(); len(got) != 2 {
		t.Fatalf("managed tints = %d, want 2", len(got))
	}
	total := 0
	for _, a := range ctl.Allocations() {
		total += a
	}
	if total != 4 {
		t.Errorf("initial allocation covers %d of 4 columns", total)
	}
}

func TestAttachAdaptiveTooManyTints(t *testing.T) {
	sys := adaptiveTestSystem(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := sys.MapRegion(memory.Region{Name: "r", Base: memory.Addr(i) << 20, Size: 4096},
			replacement.Of(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 tints (default + 2 mapped) onto 2 columns cannot keep everyone's
	// one-column minimum.
	if _, err := attachAdaptive(sys, 16, 32, 2, 1024, 16); err == nil {
		t.Error("over-subscribed adaptive setup accepted")
	}
}

func TestLoadTracesSynthetic(t *testing.T) {
	for _, kind := range []string{"stream", "random", "chase"} {
		traces, err := loadTraces(kind, 100, false)
		if err != nil {
			t.Errorf("loadTraces(%s): %v", kind, err)
			continue
		}
		if len(traces) != 1 || len(traces[0]) == 0 {
			t.Errorf("loadTraces(%s) shape wrong", kind)
		}
	}
	if _, err := loadTraces("bogus", 100, false); err == nil {
		t.Error("bogus synthetic kind accepted")
	}
}

func TestJobMaskFlag(t *testing.T) {
	var j jobMaskFlag
	if err := j.Set("0:0,1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Set("2:3"); err != nil {
		t.Fatal(err)
	}
	if len(j.masks) != 2 || !j.masks[0].Has(1) || !j.masks[2].Has(3) {
		t.Errorf("masks=%v", j.masks)
	}
	if j.String() == "" {
		t.Error("empty String")
	}
	for _, bad := range []string{"nocolon", "x:1", "-1:1", "0:x"} {
		if err := j.Set(bad); err == nil {
			t.Errorf("Set(%q) succeeded", bad)
		}
	}
}

func TestEpochSummaryNamesThePath(t *testing.T) {
	got := epochSummary(multicore.EpochStats{Epochs: 3, ConflictEpochs: 1, SerialWindows: 4, LookaheadAccesses: 90, DirectAccesses: 2})
	want := "colsim: parallel stepper ran epochs: epochs=3 conflict_epochs=1 serial_windows=4 lookahead_accesses=90 direct_accesses=2"
	if got != want {
		t.Errorf("epoch run:\n got %q\nwant %q", got, want)
	}
	got = epochSummary(multicore.EpochStats{Fallback: multicore.FallbackInspector})
	if !strings.Contains(got, "fell back to serial (inspector)") || !strings.Contains(got, "epochs=0") {
		t.Errorf("fallback run: %q", got)
	}
}
