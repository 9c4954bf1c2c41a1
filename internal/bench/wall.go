package bench

import (
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// wallPackages are the packages whose testing.B rows make up the wall-clock
// ledger, and wallPattern selects the rows: one per layer the fault crosses,
// kept beside the code they measure.
var wallPackages = []string{
	"./internal/blockdev",
	"./internal/clock",
	"./internal/core",
	"./internal/hotset",
	"./internal/kvstore/dram",
	"./internal/kvstore/ramcloud",
	"./internal/loadgen",
	"./internal/swap",
	"./internal/uffd",
	"./internal/vm",
}

const wallPattern = "^Benchmark(NormFloat64|Sample|AccessHit|InstallRemap|LRUInsertRemove|ProfilerRecord|AllZero|FaultEvict|" +
	"WritebackEnqueueFlush|SteadyStateFault|SchedulerPushPop|ArrivalsNext|RamcloudOverwrite|MultiPut32|TouchHit|Touch|ReadWrite)$"

// WallRow is one testing.B row of the ledger.
type WallRow struct {
	// Name is the package path within the module and the benchmark name.
	Name string `json:"name"`
	// WallNsPerOp is host time per operation: machine-dependent, so it is
	// printed in the table and never written to the artifact.
	WallNsPerOp float64 `json:"-"`
	// BytesPerOp and AllocsPerOp are machine-independent at a fixed
	// iteration count; the ratchet holds them byte for byte.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// WallResult is the wall-clock ledger: the simulator's own host cost, layer
// by layer.
type WallResult struct {
	// Iterations is the fixed -benchtime count every row ran for.
	Iterations int       `json:"iterations"`
	Rows       []WallRow `json:"rows"`
}

// RunWall runs the ledger's benchmarks with `go test` — the rows are
// testing.B functions in their own packages' test files, out of reach of an
// import — so it needs the go tool on PATH and the module root as working
// directory, which `make bench-wall` and `make bench-ratchet` provide.
func RunWall(opts Options) (*WallResult, error) {
	res := &WallResult{Iterations: 100000}
	if opts.Quick {
		res.Iterations = 1000
	}
	args := append([]string{"test", "-run", "^$", "-bench", wallPattern, "-benchmem",
		"-benchtime", strconv.Itoa(res.Iterations) + "x", "-cpu", "1", "-count", "1"}, wallPackages...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("wall: go %s: %w\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
	}
	if res.Rows, err = parseBenchOutput(out); err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("wall: no benchmark row in go test output:\n%s", out)
	}
	return res, nil
}

// parseBenchOutput extracts the benchmark rows from `go test -bench` output,
// prefixed with the package each ran in and sorted by name (sub-benchmarks
// that range over a map run in a different order every time).
func parseBenchOutput(out []byte) ([]WallRow, error) {
	var rows []WallRow
	first := 0 // first row of the package being read
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && (fields[0] == "ok" || fields[0] == "FAIL") {
			// The package line follows its rows.
			pkg := strings.TrimPrefix(fields[1], "fluidmem/")
			for i := first; i < len(rows); i++ {
				rows[i].Name = pkg + "." + rows[i].Name
			}
			first = len(rows)
			continue
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		row := WallRow{Name: fields[0], BytesPerOp: -1, AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("wall: parse %q: %w", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				row.WallNsPerOp = v
			case "B/op":
				row.BytesPerOp = v
			case "allocs/op":
				row.AllocsPerOp = v
			}
		}
		if row.BytesPerOp < 0 || row.AllocsPerOp < 0 {
			return nil, fmt.Errorf("wall: row without -benchmem columns: %q", line)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// Render prints the ledger.
func (r *WallResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wall-clock ledger — %d iterations per row\n", r.Iterations)
	fmt.Fprintf(&b, "%-64s %12s %10s %10s\n", "row", "ns/op", "B/op", "allocs/op")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-64s %12.1f %10.0f %10.0f\n", row.Name, row.WallNsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}
	return b.String()
}
