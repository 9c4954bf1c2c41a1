// Package blockdev models the block devices that back swap in the paper's
// comparison points (§VI-A): a DRAM/pmem device (/dev/pmem0), an NVMe-over-
// Fabrics target reached over FDR InfiniBand, and a local SSD partition. A
// device services page-granularity reads and writes with a queued service
// time, O_DIRECT (libvirt cache=none, the paper's setting for swap
// comparisons).
package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
)

// PageSize is the I/O granularity (swap I/O is page-sized).
const PageSize = 4096

// Errors returned by devices.
var (
	// ErrOutOfRange reports an access past the device size.
	ErrOutOfRange = errors.New("blockdev: sector out of range")
	// ErrNotWritten reports a read of a page never written, or freed since.
	ErrNotWritten = errors.New("blockdev: page not written")
)

// Kind identifies a device technology.
type Kind string

// Device kinds used in the evaluation.
const (
	KindPmem   Kind = "pmem"   // remote DRAM exposed as /dev/pmem0
	KindNVMeoF Kind = "nvmeof" // NVMe over Fabrics target over FDR IB
	KindSSD    Kind = "ssd"    // local SATA/NVMe flash partition
)

// Params configures one device.
type Params struct {
	Kind Kind
	// SizeBytes is the device capacity (the paper uses 10–20 GB).
	SizeBytes uint64
	// ReadLatency and WriteLatency are per-page service times.
	ReadLatency  clock.LatencyModel
	WriteLatency clock.LatencyModel
}

// PmemParams models remote DRAM via /dev/pmem0: DAX-like, microsecond-scale.
func PmemParams(size uint64) Params {
	return Params{
		Kind:         KindPmem,
		SizeBytes:    size,
		ReadLatency:  clock.LatencyModel{Base: 2800 * time.Nanosecond, Jitter: 300 * time.Nanosecond},
		WriteLatency: clock.LatencyModel{Base: 3000 * time.Nanosecond, Jitter: 300 * time.Nanosecond},
	}
}

// NVMeoFParams models an NVMeoF target over FDR InfiniBand: an RDMA round
// trip plus the remote block stack.
func NVMeoFParams(size uint64) Params {
	return Params{
		Kind:         KindNVMeoF,
		SizeBytes:    size,
		ReadLatency:  clock.LatencyModel{Base: 21 * time.Microsecond, Jitter: 3 * time.Microsecond, TailProb: 0.008, TailExtra: 200 * time.Microsecond},
		WriteLatency: clock.LatencyModel{Base: 19 * time.Microsecond, Jitter: 3 * time.Microsecond, TailProb: 0.008, TailExtra: 200 * time.Microsecond},
	}
}

// SSDParams models a local SATA SSD partition.
func SSDParams(size uint64) Params {
	return Params{
		Kind:         KindSSD,
		SizeBytes:    size,
		ReadLatency:  clock.LatencyModel{Base: 98 * time.Microsecond, Jitter: 16 * time.Microsecond, TailProb: 0.012, TailExtra: 900 * time.Microsecond},
		WriteLatency: clock.LatencyModel{Base: 55 * time.Microsecond, Jitter: 12 * time.Microsecond, TailProb: 0.02, TailExtra: 1500 * time.Microsecond},
	}
}

// Device is one simulated block device storing real page contents. It keeps
// buffers as kvstore.Store does: WritePage copies like Put, WritePageAsync
// takes the caller's buffer like MultiPut, ReadPage returns the stored one
// like Get, and Free drops it like Delete.
type Device struct {
	params Params
	pages  map[uint64][]byte
	queue  *clock.Device
	// bgQueue services asynchronous writeback (kswapd swap-out): background
	// writes occupy it without head-of-line-blocking foreground reads,
	// modelling the block layer's sync-read priority.
	bgQueue *clock.Device
}

// New builds a device from params.
func New(p Params, seed uint64) (*Device, error) {
	if p.SizeBytes == 0 {
		return nil, fmt.Errorf("blockdev: zero-size %s device", p.Kind)
	}
	return &Device{
		params:  p,
		pages:   make(map[uint64][]byte),
		queue:   clock.NewDevice(p.ReadLatency, seed),
		bgQueue: clock.NewDevice(p.WriteLatency, seed+1),
	}, nil
}

// Pages reports the device capacity in pages.
func (d *Device) Pages() uint64 { return d.params.SizeBytes / PageSize }

// ReadPage returns the completion time and the stored page, unchanged until
// it is next written or freed, which the caller must not write.
func (d *Device) ReadPage(now time.Duration, page uint64) ([]byte, time.Duration, error) {
	if page >= d.Pages() {
		return nil, now, fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, d.Pages())
	}
	data, ok := d.pages[page]
	done := d.queue.Submit(now)
	if !ok {
		return nil, done, fmt.Errorf("%w: page %d", ErrNotWritten, page)
	}
	return data, done, nil
}

// put checks page and data, then stores data itself as the page.
func (d *Device) put(page uint64, data []byte) error {
	if page >= d.Pages() {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, d.Pages())
	}
	if len(data) != PageSize {
		return fmt.Errorf("blockdev: write of %d bytes, want %d", len(data), PageSize)
	}
	d.pages[page] = data
	return nil
}

// WritePage writes a copy of one page, returning the completion time.
func (d *Device) WritePage(now time.Duration, page uint64, data []byte) (time.Duration, error) {
	if err := d.put(page, bytes.Clone(data)); err != nil {
		return now, err
	}
	// The foreground queue serves reads and these writes in one order. It
	// holds the read model, so a write lends it the write model.
	d.queue.Model = d.params.WriteLatency
	done := d.queue.Submit(now)
	d.queue.Model = d.params.ReadLatency
	return done, nil
}

// WritePageAsync writes data itself, which the caller must not touch again,
// on the background (writeback) channel: it is durable immediately for
// subsequent reads, the returned completion time reports when the device
// finishes the transfer, and foreground reads do not queue behind it. This is
// kswapd-style asynchronous swap-out; the caller throttles on that time.
func (d *Device) WritePageAsync(now time.Duration, page uint64, data []byte) (time.Duration, error) {
	if err := d.put(page, data); err != nil {
		return now, err
	}
	return d.bgQueue.Submit(now), nil
}

// Free discards page (TRIM): a read of it is ErrNotWritten until it is
// written again. It costs no device time.
func (d *Device) Free(page uint64) { delete(d.pages, page) }
