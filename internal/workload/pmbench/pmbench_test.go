package pmbench

import (
	"testing"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/vm"
)

// newGuest builds a FluidMem-backed VM with the given local page budget.
func newGuest(t *testing.T, store string, localPages int, guestBytes uint64) *vm.VM {
	t.Helper()
	var cfg core.Config
	switch store {
	case "dram":
		cfg = core.DefaultConfig(dram.New(dram.DefaultParams(), 3), localPages)
	default:
		cfg = core.DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 3), localPages)
	}
	mon, err := core.NewMonitor(cfg, nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x7f00_0000_0000)
	if _, err := mon.RegisterRange(base, guestBytes, 1); err != nil {
		t.Fatal(err)
	}
	guest, err := vm.New(vm.Config{Name: "g", MemBytes: guestBytes, PID: 1, Base: base}, mon)
	if err != nil {
		t.Fatal(err)
	}
	return guest
}

func TestRunValidation(t *testing.T) {
	v := newGuest(t, "dram", 256, 4<<20)
	if _, _, err := Run(0, v, Config{WSSBytes: 100}); err == nil {
		t.Fatal("tiny WSS accepted")
	}
	if _, _, err := Run(0, v, Config{WSSBytes: 1 << 20, ReadRatio: 2}); err == nil {
		t.Fatal("bad read ratio accepted")
	}
}

func TestRunCollectsLatencies(t *testing.T) {
	v := newGuest(t, "dram", 128, 8<<20)
	cfg := DefaultConfig(2 << 20) // 512-page WSS over 128 local pages
	cfg.Duration = 50 * time.Millisecond
	res, now, err := Run(0, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses == 0 || res.Latencies.Len() != res.Accesses {
		t.Fatalf("accesses = %d, samples = %d", res.Accesses, res.Latencies.Len())
	}
	if res.ReadLatencies.Len()+res.WriteLatencies.Len() != res.Accesses {
		t.Fatal("read+write split wrong")
	}
	if res.WarmupTime <= 0 || res.RunTime <= 0 {
		t.Fatal("phase times missing")
	}
	if now <= res.WarmupTime {
		t.Fatal("end time inconsistent")
	}
	// 50/50 split within tolerance.
	frac := float64(res.ReadLatencies.Len()) / float64(res.Accesses)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction = %v", frac)
	}
}

func TestMaxAccessesCap(t *testing.T) {
	v := newGuest(t, "dram", 128, 8<<20)
	cfg := DefaultConfig(1 << 20)
	cfg.Duration = time.Hour
	cfg.MaxAccesses = 1000
	res, _, err := Run(0, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 1000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
}

func TestCacheHitFractionTracksLocalRatio(t *testing.T) {
	// With a working set 4× local memory, roughly a quarter of accesses hit
	// local pages (the <10 µs cluster in Figure 3).
	localPages := 128
	v := newGuest(t, "ramcloud", localPages, 16<<20)
	cfg := DefaultConfig(uint64(4*localPages) * vm.PageSize)
	cfg.Duration = 200 * time.Millisecond
	res, _, err := Run(0, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Between 15 % and 40 % of accesses complete under 10 µs.
	fast := 10 * time.Microsecond
	if p15, p40 := res.Latencies.Percentile(15), res.Latencies.Percentile(40); p15 >= fast || p40 < fast {
		t.Fatalf("15th percentile %v, 40th %v; want the fast fraction ≈0.25 (10 µs between them)", p15, p40)
	}
}

func TestDRAMBackendFasterThanRAMCloud(t *testing.T) {
	run := func(store string) time.Duration {
		v := newGuest(t, store, 128, 16<<20)
		cfg := DefaultConfig(512 * vm.PageSize)
		cfg.Duration = 100 * time.Millisecond
		res, _, err := Run(0, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latencies.Mean()
	}
	if d, r := run("dram"), run("ramcloud"); d >= r {
		t.Fatalf("dram mean %v not faster than ramcloud %v", d, r)
	}
}

func TestDeterministicAccessPattern(t *testing.T) {
	run := func() int {
		v := newGuest(t, "dram", 128, 8<<20)
		cfg := DefaultConfig(1 << 20)
		cfg.Duration = 20 * time.Millisecond
		res, _, err := Run(0, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Accesses
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %d vs %d accesses", a, b)
	}
}
