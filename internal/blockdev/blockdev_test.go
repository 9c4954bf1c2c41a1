package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func page(tag byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = tag
	}
	return p
}

func mustNew(t *testing.T, p Params, seed uint64) *Device {
	t.Helper()
	d, err := New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, params := range []Params{PmemParams(1 << 30), NVMeoFParams(1 << 30), SSDParams(1 << 30)} {
		t.Run(string(params.Kind), func(t *testing.T) {
			d := mustNew(t, params, 1)
			if _, err := d.WritePage(0, 42, page(7)); err != nil {
				t.Fatal(err)
			}
			if _, err := d.WritePageAsync(0, 43, page(8)); err != nil {
				t.Fatal(err)
			}
			for pg, tag := range map[uint64]byte{42: 7, 43: 8} {
				got, done, err := d.ReadPage(time.Millisecond, pg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, page(tag)) {
					t.Fatalf("page %d corrupted", pg)
				}
				if done <= time.Millisecond {
					t.Fatalf("read of page %d completed instantly", pg)
				}
			}
		})
	}
}

func TestOutOfRange(t *testing.T) {
	d := mustNew(t, PmemParams(1<<20), 1) // 256 pages
	if _, err := d.WritePage(0, 256, page(1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := d.WritePageAsync(0, 256, page(1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("async write err = %v", err)
	}
	if _, _, err := d.ReadPage(0, 9999); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read err = %v", err)
	}
}

func TestReadNeverWritten(t *testing.T) {
	d := mustNew(t, PmemParams(1<<20), 1)
	if _, _, err := d.ReadPage(0, 3); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteWrongSize(t *testing.T) {
	d := mustNew(t, PmemParams(1<<20), 1)
	if _, err := d.WritePage(0, 0, []byte("tiny")); err == nil {
		t.Fatal("want error for short write")
	}
	if _, err := d.WritePageAsync(0, 0, []byte("tiny")); err == nil {
		t.Fatal("want error for short async write")
	}
}

func TestZeroSizeRejected(t *testing.T) {
	if _, err := New(Params{Kind: KindSSD}, 1); err == nil {
		t.Fatal("want error for zero-size device")
	}
}

func TestLatencyOrdering(t *testing.T) {
	// pmem < NVMeoF < SSD on average read latency.
	avg := func(p Params) time.Duration {
		d := mustNew(t, p, 7)
		if _, err := d.WritePage(0, 0, page(1)); err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		now := time.Duration(0)
		const n = 500
		for i := 0; i < n; i++ {
			now += 10 * time.Millisecond
			_, done, err := d.ReadPage(now, 0)
			if err != nil {
				t.Fatal(err)
			}
			total += done - now
			now = done
		}
		return total / n
	}
	pmem, nvme, ssd := avg(PmemParams(1<<30)), avg(NVMeoFParams(1<<30)), avg(SSDParams(1<<30))
	if !(pmem < nvme && nvme < ssd) {
		t.Fatalf("latency ordering violated: pmem=%v nvmeof=%v ssd=%v", pmem, nvme, ssd)
	}
}

func TestQueueingUnderBurst(t *testing.T) {
	d := mustNew(t, SSDParams(1<<30), 3)
	if _, err := d.WritePage(0, 0, page(1)); err != nil {
		t.Fatal(err)
	}
	// Burst of reads at the same instant: later ones must queue.
	_, first, err := d.ReadPage(time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := d.ReadPage(time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Fatalf("no queueing: first=%v second=%v", first, second)
	}
}

// TestBufferContract pins the device's buffer contract, kvstore.Store's:
// WritePage copies, so its caller may reuse its buffer; WritePageAsync keeps
// the caller's buffer; what ReadPage returns stays unchanged through writes,
// reads and frees of other pages, until its own page is written or freed;
// and a read after Free is ErrNotWritten until the page is written again.
func TestBufferContract(t *testing.T) {
	d := mustNew(t, PmemParams(1<<20), 1)
	buf := page(1)
	if _, err := d.WritePage(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, page(2)) // the caller reuses its buffer
	got, _, err := d.ReadPage(0, 0)
	if err != nil || !bytes.Equal(got, page(1)) {
		t.Fatalf("WritePage kept the caller's buffer: read %v, %v", got[:1], err)
	}

	mine := page(3)
	if _, err := d.WritePageAsync(0, 1, mine); err != nil {
		t.Fatal(err)
	}
	if async, _, err := d.ReadPage(0, 1); err != nil || &async[0] != &mine[0] {
		t.Fatalf("WritePageAsync stored a copy (err %v)", err)
	}

	// Churn on other pages leaves page 0's read buffer alone.
	for p := uint64(1); p < 8; p++ {
		if _, err := d.WritePage(0, p, page(byte(p))); err != nil {
			t.Fatal(err)
		}
		if _, err := d.WritePageAsync(0, p+8, page(byte(p+8))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.ReadPage(0, p); err != nil {
			t.Fatal(err)
		}
		d.Free(p + 8)
	}
	if !bytes.Equal(got, page(1)) {
		t.Fatal("a read buffer changed while other pages were written and freed")
	}

	d.Free(0)
	if _, _, err := d.ReadPage(0, 0); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("read after Free: err = %v, want ErrNotWritten", err)
	}
	d.Free(1 << 40) // out of range: nothing stored, nothing to drop
	if _, err := d.WritePageAsync(0, 0, page(4)); err != nil {
		t.Fatal(err)
	}
	if again, _, err := d.ReadPage(0, 0); err != nil || !bytes.Equal(again, page(4)) {
		t.Fatalf("rewrite after Free: read %v, %v", again[:1], err)
	}
}

// BenchmarkReadWrite is blockdev's row of the wall-clock ledger: swap's use
// of an NVMe-oF device over 1 024 pages, each cycle a buffer handed over by
// WritePageAsync, taken back by ReadPage and its page freed. No page is
// copied, so it allocates nothing.
func BenchmarkReadWrite(b *testing.B) {
	const pages = 1024
	d, err := New(NVMeoFParams(1<<30), 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, PageSize)
	var now time.Duration
	cycle := func(p uint64) {
		if _, err := d.WritePageAsync(now, p, buf); err != nil {
			b.Fatal(err)
		}
		if buf, now, err = d.ReadPage(now, p); err != nil {
			b.Fatal(err)
		}
		d.Free(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(uint64(i % pages))
	}
}
