package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned transcripts under testdata from the current console")

func TestDefaultScript(t *testing.T) {
	if err := run([]string{"-local", "16", "-guest", "64"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestHotplugAndTick(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32",
		"-script", "status;hotplug 16;tick 100;status"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "explode"}, io.Discard); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestResizeArgValidation(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "resize"}, io.Discard); err == nil {
		t.Fatal("resize without argument accepted")
	}
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "resize banana"}, io.Discard); err == nil {
		t.Fatal("non-numeric resize accepted")
	}
}

// Pool commands need a cluster pool and, except recover and add, a node.
func TestPoolCommandValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-local", "8", "-guest", "32", "-script", "crash node0"},
		{"-local", "8", "-guest", "32", "-script", "recover"},
		{"-local", "8", "-guest", "32", "-backend", "cluster", "-script", "crash"},
		{"-local", "8", "-guest", "32", "-backend", "cluster", "-script", "add node9"},
		{"-local", "8", "-guest", "32", "-backend", "cluster", "-script", "crash node9"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestBadBackend(t *testing.T) {
	if err := run([]string{"-backend", "abacus"}, io.Discard); err == nil {
		t.Fatal("bad backend accepted")
	}
}

func TestHostConsole(t *testing.T) {
	// The host commands run under every planner (market prints a hint when
	// the marketplace is off).
	for _, planner := range [][]string{nil, {"-planner", "arbiter"}, {"-planner", "market"}} {
		args := append([]string{"-vms", "2", "-local", "1", "-backend", "dram", "-script", "drive 2;status;slo;market;status"}, planner...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%v: %v", planner, err)
		}
	}
	// One command table serves every tenant count: the default script's
	// machine commands act on the first tenant (probes need a guest OS
	// big enough to hold the services' files).
	if err := run([]string{"-vms", "2", "-local", "32", "-guest", "64", "-backend", "dram"}, io.Discard); err != nil {
		t.Fatalf("machine command refused by a host: %v", err)
	}
}

// -planner takes one of three names; the two that move pages need a second
// VM to move them to.
func TestMarketFlagValidation(t *testing.T) {
	for _, p := range []string{"market", "arbiter"} {
		if err := run([]string{"-planner", p}, io.Discard); err == nil {
			t.Errorf("-planner %s without -vms accepted", p)
		}
	}
	for _, args := range [][]string{
		{"-vms", "2", "-planner", "bogus"},
		{"-planner", ""},
		{"-scenario", "diurnal", "-planner", "bogus"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "-planner") {
			t.Errorf("%v: err = %v, want an error naming -planner", args, err)
		}
	}
	if err := run([]string{"-planner", "static", "-script", "status"}, io.Discard); err != nil {
		t.Errorf("-planner static on one VM: %v", err)
	}
}

// A width below one used to run as the serial monitor without a word.
func TestWorkersFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-3", "-script", "status"},
		{"-workers", "0", "-script", "status"},
		{"-scenario", "diurnal", "-workers", "-3"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "-workers must be >= 1") {
			t.Errorf("%v: err = %v, want -workers refused", args, err)
		}
	}
}

// A guest below one MB used to reach the VM as a size that wrapped past
// 2^64 bytes and panicked registering it.
func TestGuestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-guest", "-1", "-script", "status"},
		{"-guest", "0", "-script", "status"},
		{"-vms", "2", "-guest", "-4096", "-script", "status"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "-guest must be >= 1") {
			t.Errorf("%v: err = %v, want -guest refused", args, err)
		}
	}
}

// A flag the selected run would drop is refused by name: the scenario replay
// builds its own population, -rate-scale only scales a scenario, the cluster
// pool brings its own failures instead of -chaos, and only the cluster pool
// has store nodes to count.
func TestModeRejectsUnsupportedFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "x.json")
	cases := []struct {
		args []string
		flag string // the flag the error must name
	}{
		{[]string{"-scenario", "diurnal", "-backend", "cluster"}, "-backend"},
		{[]string{"-scenario", "diurnal", "-trace", trace}, "-trace"},
		{[]string{"-scenario", "diurnal", "-vms", "2"}, "-vms"},
		{[]string{"-scenario", "diurnal", "-script", "status"}, "-script"},
		{[]string{"-rate-scale", "2"}, "-rate-scale"},
		{[]string{"-vms", "2", "-rate-scale", "2"}, "-rate-scale"},
		{[]string{"-backend", "cluster", "-chaos", "0.5"}, "-chaos"},
		{[]string{"-backend", "dram", "-store-nodes", "5"}, "-store-nodes"},
		{[]string{"-store-nodes", "5"}, "-store-nodes"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil {
			t.Errorf("%v accepted, want an error naming %s", c.args, c.flag)
			continue
		}
		if !strings.Contains(err.Error(), c.flag+" is not supported") {
			t.Errorf("%v: error %q does not name %s", c.args, err, c.flag)
		}
	}
	// What each run does honour still runs.
	for _, args := range [][]string{
		{"-vms", "2", "-local", "8", "-guest", "32", "-workers", "2", "-chaos", "0.01", "-trace", trace, "-script", "drive 1;hist"},
		{"-scenario", "churn", "-planner", "market", "-workers", "2", "-rate-scale", "0.5", "-seed", "3"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// A NaN or infinite -rate-scale fails the scenario replay with loadgen's
// error, which main turns into a non-zero exit.
func TestScenarioRejectsNonFiniteRateScale(t *testing.T) {
	for _, scale := range []string{"NaN", "Inf", "-Inf"} {
		err := run([]string{"-scenario", "diurnal", "-rate-scale", scale}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "not a finite non-negative number") {
			t.Errorf("-rate-scale %s: err = %v, want the non-finite scale refused", scale, err)
		}
	}
}

// -replicas on the cluster pool is its copies per partition, an explicit 1
// included; left unset, the pool keeps its default of 2.
func TestClusterReplicasFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-backend", "cluster", "-replicas", "1"}, "replicas=1 "},
		{[]string{"-backend", "cluster", "-replicas", "3", "-store-nodes", "4"}, "replicas=3 "},
		{[]string{"-backend", "cluster"}, "replicas=2 "},
	} {
		var out bytes.Buffer
		args := append(c.args, "-local", "8", "-guest", "32", "-script", "health")
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: health does not report %q:\n%s", c.args, c.want, out.String())
		}
	}
}

// The console's stdout is pinned byte for byte: a change to any count,
// verdict, virtual time or line of these transcripts must be deliberate
// (go test ./cmd/fluidmemd -update rewrites them).
func TestTranscripts(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		// Store traffic first, then each failure event where the script
		// puts it, on node2 and node1, the two that hold the tenant's
		// partition: recover restores its copies.
		{"cluster", []string{"-backend", "cluster", "-script", "resize 120;tick 3000;health;crash node2;tick 1000;recover;tick 1000;" +
			"partition node0;tick 1000;heal node0;add;tick 1000;drain node1;tick 1000;health;status"}},
		{"market", []string{"-vms", "3", "-local", "1", "-planner", "market", "-script", "drive 8;status;slo;market"}},
		{"chaos", []string{"-replicas", "3", "-chaos", "0.02", "-seed", "7", "-script", "resize 120;tick 3000;health;status"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("fluidmemd %s: stdout differs from %s:\n%s", strings.Join(c.args, " "), path, out.String())
			}
		})
	}
}
