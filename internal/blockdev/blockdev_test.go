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
