package fluidmem

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/core/resilience"
)

// TestSimulationStartsNoGoroutines pins the fact `make check-race` relies on
// when it races only the packages that can race: the simulation runs entirely
// on its caller's goroutine. Neither a machine on the cluster pool — raft,
// simnet, resilience retries, a node crash and its recovery — nor a
// multi-tenant host trading through market epochs may leave a goroutine
// running that was not running before it started. Goroutines are compared by
// ID, not counted: one that an earlier test left behind may exit meanwhile.
func TestSimulationStartsNoGoroutines(t *testing.T) {
	before := goroutineIDs()
	check := func(stage string) {
		t.Helper()
		for id, stack := range goroutineIDs() {
			if _, ok := before[id]; !ok {
				t.Fatalf("%s: goroutine %s started during the simulation:\n%s", stage, id, stack)
			}
		}
	}

	const local, span = 32, 96 // pages: every pass over the span evicts and re-reads
	mon := core.DefaultConfig(nil, local)
	policy := resilience.DefaultPolicy()
	mon.Resilience = &policy
	m, err := NewMachine(MachineConfig{
		Backend:     BackendCluster,
		LocalMemory: local * PageSize,
		GuestMemory: 4 * span * PageSize,
		Monitor:     &mon,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := m.Alloc("ws", span*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	passes := func(stage string) {
		t.Helper()
		for op := 0; op < 3*span; op++ {
			if _, err := m.Touch(seg.Addr(0)+uint64(op%span)*PageSize, op%3 == 0); err != nil {
				t.Fatalf("%s op %d: %v", stage, op, err)
			}
		}
		check(stage)
	}
	pool := m.ClusterPool()
	passes("cluster healthy")
	if err := pool.Crash(m.Now(), pool.NodeNames()[0]); err != nil {
		t.Fatal(err)
	}
	passes("cluster crashed")
	if _, copied, err := pool.Recover(m.Now()); err != nil {
		t.Fatal(err)
	} else if copied == 0 {
		t.Fatal("recovery re-replicated nothing; the crash leg is vacuous")
	}
	passes("cluster recovered")
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	check("cluster drained")

	const epochOps, epochs = 200, 3
	spans := []int{80, 8, 8} // one bidder past its split, two donors under SLO
	specs := make([]TenantSpec, len(spans))
	for i := range specs {
		specs[i] = TenantSpec{ID: fmt.Sprintf("t%d", i), VM: MachineConfig{Backend: BackendDRAM, GuestMemory: 4 << 20}}
		if i > 0 {
			specs[i].Policy.SLO = time.Microsecond
		}
	}
	h, err := NewHost(HostConfig{Tenants: specs, TotalLocalPages: 96, Seed: 42,
		Planner: PlannerMarket, EpochOps: epochOps})
	if err != nil {
		t.Fatal(err)
	}
	guests := h.Tenants()
	bases := make([]uint64, len(spans))
	for i, g := range guests {
		seg, err := g.Machine().Alloc("ws", uint64(spans[i])*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = seg.Addr(0)
	}
	for op := 0; op < epochs*epochOps; op++ {
		for i, g := range guests {
			if _, err := g.Touch(bases[i]+uint64(op%spans[i])*PageSize, op%3 == 0); err != nil {
				t.Fatalf("tenant %d op %d: %v", i, op, err)
			}
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Market.Epochs; got < 2 {
		t.Fatalf("market ran %d epochs, want at least 2", got)
	}
	check("market host")
}

// goroutineIDs maps the ID of every live goroutine to its stack.
func goroutineIDs() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]string{}
	for _, stack := range strings.Split(string(buf), "\n\n") {
		if id, ok := strings.CutPrefix(stack, "goroutine "); ok {
			ids[id[:strings.IndexByte(id, ' ')]] = stack
		}
	}
	return ids
}

// TestProductCodeHasNoConcurrency is the static half of the same fact, and
// what DESIGN §15 claims in prose: no non-test Go file outside benchmark/
// (the repository benchmark's harness, which times the simulation from
// outside) imports sync or sync/atomic or contains a go statement. A file
// that must — ROADMAP item 2's cell runner — gets named here, alone.
func TestProductCodeHasNoConcurrency(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` || imp.Path.Value == `"sync/atomic"` {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed %d files: the walk is not seeing the tree", files)
	}
}
