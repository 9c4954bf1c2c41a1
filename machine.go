package fluidmem

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/core"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/swap"
	"fluidmem/internal/vm"
)

// PageSize is the system page size.
const PageSize = vm.PageSize

// Mode selects the disaggregation mechanism.
type Mode int

// Modes.
const (
	// ModeFluidMem uses the FluidMem monitor (full disaggregation).
	ModeFluidMem Mode = iota + 1
	// ModeSwap uses the guest kernel swap path (partial disaggregation),
	// the paper's comparison baseline.
	ModeSwap
)

// Backend selects the remote key-value store for ModeFluidMem.
type Backend string

// Backends, matching the paper's evaluation (§VI-A).
const (
	// BackendDRAM keeps pages in local hypervisor DRAM (latency floor).
	BackendDRAM Backend = "dram"
	// BackendRAMCloud stores pages in a RAMCloud-style log-structured store
	// over an InfiniBand-class transport.
	BackendRAMCloud Backend = "ramcloud"
	// BackendCluster stores pages in the sharded multi-node pool with
	// Raft-committed membership: N store nodes, R-way replication, and the
	// full add/drain/crash/partition lifecycle (internal/kvstore/cluster).
	BackendCluster Backend = "cluster"
	// BackendMemcached stores pages in a Memcached-style slab store over a
	// TCP (IP-over-IB) transport.
	BackendMemcached Backend = "memcached"
)

// SwapDevice selects the block device backing swap in ModeSwap.
type SwapDevice string

// Swap devices, matching the paper's swap baselines.
const (
	// SwapDRAM is remote DRAM exposed as /dev/pmem0.
	SwapDRAM SwapDevice = "dram"
	// SwapNVMeoF is an NVMe-over-Fabrics target over FDR InfiniBand.
	SwapNVMeoF SwapDevice = "nvmeof"
	// SwapSSD is a local SSD partition.
	SwapSSD SwapDevice = "ssd"
)

// MachineConfig assembles one simulated hypervisor + guest.
type MachineConfig struct {
	// Mode picks FluidMem or the swap baseline. Default ModeFluidMem.
	Mode Mode
	// Backend picks the key-value store (ModeFluidMem). Default RAMCloud.
	Backend Backend
	// SwapDev picks the swap block device (ModeSwap). Default NVMeoF.
	SwapDev SwapDevice
	// LocalMemory is the guest's local DRAM budget in bytes: the FluidMem
	// LRU list size, or the swap guest's physical frame count.
	LocalMemory uint64
	// GuestMemory is the guest-addressable memory in bytes (physical for
	// FluidMem after hotplug; physical+swap for the baseline).
	GuestMemory uint64
	// StoreCapacity is the key-value store capacity (ModeFluidMem).
	// Default 25 GB as in the paper's RAMCloud deployment.
	StoreCapacity uint64
	// StoreNodes and StoreReplicas shape the cluster backend
	// (BackendCluster): node count and replication factor. Zero values
	// take the cluster package defaults (3 nodes, 2 replicas).
	StoreNodes    int
	StoreReplicas int
	// Virt is the virtualisation mode. Default KVM.
	Virt vm.VirtMode
	// BootOS boots a guest OS before returning, populating the OS footprint.
	BootOS bool
	// OSProfile overrides the OS footprint model; zero value selects a
	// profile scaled to LocalMemory (≈30% of local DRAM at boot, matching
	// the paper's 317 MB on 1 GB guests).
	OSProfile vm.OSProfile
	// Monitor optionally overrides the FluidMem monitor configuration
	// (optimisation toggles for ablations). Store and LRUCapacity fields
	// are filled in by NewMachine, and NewMachine overwrites the override's
	// Seed with this config's Seed + 11, so the machine Seed alone drives
	// the monitor's randomness. Nil selects the fully optimised default.
	//
	// Machine-level conveniences MERGE with the override rather than being
	// discarded by it: Tracer and Hotset still apply when the override
	// leaves the corresponding Config field nil (Trace, Hotset). An
	// explicitly configured field in the override always wins. The
	// compressed tier and prefetching have no machine-level spelling: set
	// Monitor.Compress / Monitor.PrefetchPages.
	Monitor *core.Config
	// Tracer optionally enables virtual-time tracing: events and phase
	// latency histograms from the whole fault pipeline, surfaced through
	// Machine.Stats and Machine.WriteTrace. Tracing never changes simulated
	// results. When Monitor is set, this applies unless the override sets
	// its own Trace. The backend built by NewMachine is also routed through
	// kvstore.Instrumented so store traffic appears in the trace
	// (SharedStore is left untouched — wrap it yourself if desired).
	Tracer *Tracer
	// Hotset optionally attaches a ghost-LRU working-set estimator to the
	// monitor (ModeFluidMem): evicted page keys shadow in a bounded list
	// whose hit depths build the miss-ratio curve a Host's arbiter prices
	// reallocations against. Like Tracer it is pure observation — simulated
	// results are bit-identical with it on or off. A non-positive
	// GhostCapacity or BucketPages fails NewMachine. When Monitor is set,
	// this applies unless the override sets its own Hotset tracker.
	Hotset *HotsetParams
	// SharedStore optionally supplies an existing key-value store shared
	// with other hypervisors — the setting Migrate requires, and the way
	// multiple machines pool one RAMCloud cluster (§IV).
	SharedStore kvstore.Store
	// Registry optionally supplies a shared partition registry for
	// multi-hypervisor deployments. Left nil, a machine that builds its own
	// BackendCluster pool claims its partition in the pool's ZooKeeper
	// ensemble (cluster.Pool.Registry); any other machine keeps a private
	// kvstore.LocalRegistry.
	Registry kvstore.Registry
	// HypervisorID identifies this hypervisor in the partition registry.
	HypervisorID string
	// Seed drives all randomness. Same seed, same run.
	Seed uint64
}

// Machine is one simulated hypervisor running one guest.
type Machine struct {
	cfg MachineConfig
	now time.Duration

	vm          *vm.VM
	os          *vm.GuestOS
	monitor     *core.Monitor
	swap        *swap.Subsystem
	store       kvstore.Store
	clusterPool *cluster.Pool
	balloon     *vm.Balloon
}

// NewMachine builds and wires a machine; with BootOS set it also boots the
// guest, charging boot time to the virtual clock.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	applyMachineDefaults(&cfg)
	if cfg.LocalMemory < PageSize {
		return nil, errors.New("fluidmem: LocalMemory must be at least one page")
	}
	if cfg.GuestMemory < cfg.LocalMemory {
		return nil, errors.New("fluidmem: GuestMemory smaller than LocalMemory")
	}

	// Capacity inputs are validated up front so a bad share surfaces as a
	// clear NewMachine error, not a monitor failure mid-run.
	if cfg.Monitor != nil && cfg.Monitor.LRUCapacity < 0 {
		return nil, fmt.Errorf("fluidmem: Monitor.LRUCapacity %d is negative", cfg.Monitor.LRUCapacity)
	}
	if cfg.Hotset != nil {
		if cfg.Hotset.GhostCapacity < 1 {
			return nil, fmt.Errorf("fluidmem: Hotset.GhostCapacity %d < 1 page", cfg.Hotset.GhostCapacity)
		}
		if cfg.Hotset.BucketPages < 1 {
			return nil, fmt.Errorf("fluidmem: Hotset.BucketPages %d < 1 page", cfg.Hotset.BucketPages)
		}
	}

	m := &Machine{cfg: cfg}
	pid := 1000 + int(cfg.Seed%9000)
	vmCfg := vm.Config{
		Name:     "guest0",
		MemBytes: cfg.GuestMemory,
		PID:      pid,
		Virt:     cfg.Virt,
	}

	var backing vm.Backing
	switch cfg.Mode {
	case ModeFluidMem:
		store := cfg.SharedStore
		if store == nil {
			var err error
			if store, m.clusterPool, err = newStore(cfg); err != nil {
				return nil, err
			}
		}
		m.store = store
		mcfg := core.DefaultConfig(store, int(cfg.LocalMemory/PageSize))
		if cfg.Monitor != nil {
			mcfg = *cfg.Monitor
			mcfg.Store = store
			if mcfg.LRUCapacity == 0 {
				mcfg.LRUCapacity = int(cfg.LocalMemory / PageSize)
			}
		}
		// Machine-level conveniences merge with a Monitor override instead
		// of being silently discarded by it: each applies unless the
		// override configured the same feature explicitly (see the
		// MachineConfig.Monitor doc; TestMonitorOverrideMergesConveniences
		// pins the precedence).
		if mcfg.Trace == nil {
			mcfg.Trace = cfg.Tracer
		}
		if mcfg.Hotset == nil && cfg.Hotset != nil {
			hs, err := hotset.New(*cfg.Hotset)
			if err != nil {
				return nil, fmt.Errorf("fluidmem: %w", err)
			}
			mcfg.Hotset = hs
		}
		mcfg.Seed = cfg.Seed + 11
		registry := cfg.Registry
		if registry == nil && m.clusterPool != nil {
			registry = m.clusterPool.Registry()
		}
		monitor, err := core.NewMonitor(mcfg, registry, cfg.HypervisorID)
		if err != nil {
			return nil, err
		}
		base := uint64(0x7f00_0000_0000)
		if _, err := monitor.RegisterRange(base, cfg.GuestMemory, pid); err != nil {
			return nil, err
		}
		vmCfg.Base = base
		m.monitor = monitor
		backing = monitor
	case ModeSwap:
		sub, err := newSwapSubsystem(cfg)
		if err != nil {
			return nil, err
		}
		m.swap = sub
		backing = sub
	default:
		return nil, fmt.Errorf("fluidmem: unknown mode %d", cfg.Mode)
	}

	guest, err := vm.New(vmCfg, backing)
	if err != nil {
		return nil, err
	}
	m.vm = guest
	m.balloon = vm.NewBalloon(guest)

	if cfg.BootOS {
		profile := cfg.OSProfile
		if profile.TotalPages() == 0 {
			profile = vm.ScaledOSProfile(int(cfg.LocalMemory / PageSize * 3 / 10))
		}
		os, now, err := vm.BootOS(m.now, guest, profile, cfg.Seed+23)
		if err != nil {
			return nil, fmt.Errorf("fluidmem: boot: %w", err)
		}
		m.os = os
		m.now = now
	}
	return m, nil
}

func applyMachineDefaults(cfg *MachineConfig) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeFluidMem
	}
	if cfg.Backend == "" {
		cfg.Backend = BackendRAMCloud
	}
	if cfg.SwapDev == "" {
		cfg.SwapDev = SwapNVMeoF
	}
	if cfg.StoreCapacity == 0 {
		cfg.StoreCapacity = 25 << 30
	}
	if cfg.Virt == 0 {
		cfg.Virt = vm.VirtKVM
	}
	if cfg.HypervisorID == "" {
		cfg.HypervisorID = "hypervisor-0"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

func newStore(cfg MachineConfig) (kvstore.Store, *cluster.Pool, error) {
	var backend kvstore.Store
	var pool *cluster.Pool
	switch cfg.Backend {
	case BackendDRAM:
		backend = dram.New(dram.DefaultParams(), cfg.Seed+101)
	case BackendRAMCloud:
		p := ramcloud.DefaultParams()
		p.CapacityBytes = cfg.StoreCapacity
		backend = ramcloud.New(p, cfg.Seed+102)
	case BackendMemcached:
		p := memcached.DefaultParams()
		p.CapacityBytes = cfg.StoreCapacity
		backend = memcached.New(p, cfg.Seed+103)
	case BackendCluster:
		var err error
		pool, err = cluster.New(cluster.Config{
			Nodes:    cfg.StoreNodes,
			Replicas: cfg.StoreReplicas,
			Seed:     cfg.Seed + 104,
		})
		if err != nil {
			return nil, nil, err
		}
		backend = pool
	default:
		return nil, nil, fmt.Errorf("fluidmem: unknown backend %q", cfg.Backend)
	}
	// Every built-in backend routes through the instrumentation wrapper so
	// its traffic shows up in traces; with no tracer this is the identity.
	return kvstore.Instrumented(backend, cfg.Tracer), pool, nil
}

func newSwapSubsystem(cfg MachineConfig) (*swap.Subsystem, error) {
	// The swap device is four times the guest's memory.
	swapBytes := 4 * cfg.GuestMemory
	var devParams blockdev.Params
	switch cfg.SwapDev {
	case SwapDRAM:
		devParams = blockdev.PmemParams(swapBytes)
	case SwapNVMeoF:
		devParams = blockdev.NVMeoFParams(swapBytes)
	case SwapSSD:
		devParams = blockdev.SSDParams(swapBytes)
	default:
		return nil, fmt.Errorf("fluidmem: unknown swap device %q", cfg.SwapDev)
	}
	swapDev, err := blockdev.New(devParams, cfg.Seed+201)
	if err != nil {
		return nil, err
	}
	// The guest filesystem lives on a local SSD in all configurations.
	fsDev, err := blockdev.New(blockdev.SSDParams(max64(4*cfg.GuestMemory, 1<<30)), cfg.Seed+202)
	if err != nil {
		return nil, err
	}
	return swap.New(swap.DefaultParams(int(cfg.LocalMemory/PageSize)), swapDev, fsDev, cfg.Seed+203)
}

// Now reports the machine's virtual clock.
func (m *Machine) Now() time.Duration { return m.now }

// AdvanceCPU charges pure compute time (workload think time) to the clock.
func (m *Machine) AdvanceCPU(d time.Duration) {
	if d > 0 {
		m.now += d
	}
}

// VM exposes the guest.
func (m *Machine) VM() *vm.VM { return m.vm }

// OS exposes the booted guest OS (nil unless BootOS was set).
func (m *Machine) OS() *vm.GuestOS { return m.os }

// Monitor exposes the FluidMem monitor (nil in ModeSwap).
func (m *Machine) Monitor() *core.Monitor { return m.monitor }

// Swap exposes the swap subsystem (nil in ModeFluidMem).
func (m *Machine) Swap() *swap.Subsystem { return m.swap }

// Store exposes the key-value backend (nil in ModeSwap).
func (m *Machine) Store() kvstore.Store { return m.store }

// ClusterPool exposes the sharded multi-node pool behind the store when the
// machine was built with BackendCluster (nil otherwise) — the handle the
// operator surface uses for membership changes and failure injection.
func (m *Machine) ClusterPool() *cluster.Pool { return m.clusterPool }

// Balloon exposes the guest balloon driver.
func (m *Machine) Balloon() *vm.Balloon { return m.balloon }

// Alloc reserves anonymous guest memory for a workload.
func (m *Machine) Alloc(name string, bytes uint64) (*vm.Segment, error) {
	return m.vm.Alloc(name, bytes, vm.ClassAnon)
}

// Touch accesses the page at addr, advancing the virtual clock by the access
// cost, and returns the page frame.
func (m *Machine) Touch(addr uint64, write bool) ([]byte, error) {
	data, now, err := m.vm.Touch(m.now, addr, write)
	m.now = now
	return data, err
}

// Read64 reads the word at addr, advancing the clock.
func (m *Machine) Read64(addr uint64) (uint64, error) {
	v, now, err := m.vm.Read64(m.now, addr)
	m.now = now
	return v, err
}

// Write64 writes the word at addr, advancing the clock.
func (m *Machine) Write64(addr uint64, value uint64) error {
	now, err := m.vm.Write64(m.now, addr, value)
	m.now = now
	return err
}

// OSTick runs background guest-OS activity (touches of the OS working set).
func (m *Machine) OSTick(touches int) error {
	if m.os == nil {
		return nil
	}
	now, err := m.os.Tick(m.now, touches)
	m.now = now
	return err
}

// ResidentPages reports the guest's local-DRAM footprint.
func (m *Machine) ResidentPages() int { return m.vm.ResidentPages() }

// ResizeFootprint changes the local memory budget at runtime. For FluidMem
// this resizes the monitor's LRU list (§III), evicting immediately when
// shrinking — the full-disaggregation capability Table III demonstrates.
// ModeSwap cannot do this without guest cooperation and returns an error,
// exactly the limitation the paper describes (§II).
func (m *Machine) ResizeFootprint(pages int) error {
	if m.monitor == nil {
		return errors.New("fluidmem: swap-based machines cannot resize the footprint without guest cooperation (use the balloon)")
	}
	now, err := m.monitor.Resize(m.now, pages)
	m.now = now
	return err
}

// Hotplug adds guest memory at runtime (QEMU memory hotplug, §III). In
// FluidMem mode the new range is registered with the monitor first, which
// refuses every size the VM would, so a refused hotplug changes nothing.
func (m *Machine) Hotplug(bytes uint64) error {
	if m.monitor != nil {
		if _, err := m.monitor.RegisterRange(m.vm.Config().Base+m.vm.MemBytes(), bytes, m.vm.Config().PID); err != nil {
			return err
		}
	}
	return m.vm.Hotplug(bytes)
}

// Probe tests service responsiveness at the current footprint (Table III).
// The probe runs against the OS file segment; the machine must be booted.
func (m *Machine) Probe(svc vm.Service) (vm.ProbeResult, error) {
	if m.os == nil {
		return vm.ProbeResult{}, errors.New("fluidmem: Probe requires a booted OS")
	}
	var fileSeg *vm.Segment
	for _, seg := range m.os.Segments() {
		if seg != nil && seg.Class == vm.ClassFile {
			fileSeg = seg
			break
		}
	}
	if fileSeg == nil {
		return vm.ProbeResult{}, errors.New("fluidmem: no OS file segment")
	}
	res, now, err := vm.Probe(m.now, m.vm, fileSeg, svc)
	m.now = now
	return res, err
}

// Drain quiesces asynchronous writeback (FluidMem mode); a no-op for swap.
func (m *Machine) Drain() error {
	if m.monitor == nil {
		return nil
	}
	now, err := m.monitor.Drain(m.now)
	m.now = now
	return err
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
