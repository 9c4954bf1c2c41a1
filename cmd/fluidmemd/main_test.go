package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultScript(t *testing.T) {
	if err := run([]string{"-local", "16", "-guest", "64"}); err != nil {
		t.Fatal(err)
	}
}

func TestHotplugAndTick(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32",
		"-script", "status;hotplug 16;tick 100;status"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "explode"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestResizeArgValidation(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "resize"}); err == nil {
		t.Fatal("resize without argument accepted")
	}
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "resize banana"}); err == nil {
		t.Fatal("non-numeric resize accepted")
	}
}

func TestBadBackend(t *testing.T) {
	if err := run([]string{"-backend", "abacus"}); err == nil {
		t.Fatal("bad backend accepted")
	}
}

func TestHostConsole(t *testing.T) {
	// The default host script runs status, slo, and market against every
	// planner (market prints a hint when the marketplace is off).
	for _, planner := range [][]string{nil, {"-arbiter"}, {"-market"}} {
		args := append([]string{"-vms", "2", "-local", "1", "-backend", "dram"}, planner...)
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", planner, err)
		}
	}
	if err := run([]string{"-vms", "2", "-local", "1", "-backend", "dram",
		"-script", "status;slo;market;status"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-vms", "2", "-local", "1", "-backend", "dram", "-script", "resize 4"}); err == nil {
		t.Fatal("machine command accepted by the host console")
	}
}

func TestMarketFlagValidation(t *testing.T) {
	if err := run([]string{"-market"}); err == nil {
		t.Fatal("-market without -vms accepted")
	}
	if err := run([]string{"-vms", "2", "-market", "-arbiter"}); err == nil {
		t.Fatal("-market with -arbiter accepted")
	}
}

// A width below one used to run as the serial monitor without a word.
func TestWorkersFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-3", "-script", "status"},
		{"-workers", "0", "-script", "status"},
		{"-scenario", "diurnal", "-workers", "-3"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-workers must be >= 1") {
			t.Errorf("%v: err = %v, want -workers refused", args, err)
		}
	}
}

// Every console mode must refuse a flag it would otherwise drop silently,
// naming the flag: the host console and the scenario replay used to accept
// -trace, -workers, -chaos, -failure-schedule and run without them.
func TestModeRejectsUnsupportedFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "x.json")
	cases := []struct {
		args []string
		flag string // the flag the error must name
	}{
		{[]string{"-vms", "2", "-trace", trace}, "-trace"},
		{[]string{"-vms", "2", "-workers", "8"}, "-workers"},
		{[]string{"-vms", "2", "-chaos", "0.5"}, "-chaos"},
		{[]string{"-vms", "2", "-backend", "cluster", "-failure-schedule", "crash:node0@1ms"}, "-failure-schedule"},
		{[]string{"-vms", "2", "-guest", "64"}, "-guest"},
		{[]string{"-vms", "2", "-rate-scale", "2"}, "-rate-scale"},
		{[]string{"-scenario", "diurnal", "-backend", "cluster"}, "-backend"},
		{[]string{"-scenario", "diurnal", "-trace", trace}, "-trace"},
		{[]string{"-scenario", "diurnal", "-vms", "2"}, "-vms"},
		{[]string{"-scenario", "diurnal", "-script", "status"}, "-script"},
		{[]string{"-market"}, "-market"},
		{[]string{"-arbiter"}, "-arbiter"},
		{[]string{"-rate-scale", "2"}, "-rate-scale"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("%v accepted, want an error naming %s", c.args, c.flag)
			continue
		}
		if !strings.Contains(err.Error(), c.flag+" is not supported") {
			t.Errorf("%v: error %q does not name %s", c.args, err, c.flag)
		}
	}
	// What each mode does honour still runs.
	for _, args := range [][]string{
		{"-vms", "1", "-local", "8", "-guest", "32", "-workers", "2", "-script", "status"},
		{"-scenario", "churn", "-market", "-workers", "2", "-rate-scale", "0.5", "-seed", "3"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
