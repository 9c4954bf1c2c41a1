package fluidmem

import (
	"errors"
	"fmt"
)

// Migrate moves the guest VM from src to dst using post-copy migration over
// the disaggregated store (§VII: live migration and memory disaggregation
// are complementary). The page contents never travel between hypervisors —
// they are already in the shared key-value store; only the monitor's
// page-tracking metadata crosses the wire, and pages fault back in on the
// destination on demand.
//
// Requirements: both machines run ModeFluidMem, were built with the same
// SharedStore and Registry, have distinct PIDs, and dst has never hosted a
// workload (create it with BootOS=false; its empty initial VM is discarded
// once the export has succeeded). A failed export leaves the guest running
// on src, its clock charged for the attempt, so Migrate can simply be
// called again.
func Migrate(src, dst *Machine) error {
	if src.monitor == nil || dst.monitor == nil {
		return errors.New("fluidmem: migration requires FluidMem machines on both sides")
	}
	if src.store != dst.store {
		return errors.New("fluidmem: migration requires a shared store (MachineConfig.SharedStore)")
	}
	srcPID := src.vm.Config().PID
	dstPID := dst.vm.Config().PID
	if srcPID == dstPID {
		return fmt.Errorf("fluidmem: source and destination share PID %d; use distinct seeds", srcPID)
	}
	if dst.ResidentPages() != 0 || dst.os != nil {
		return errors.New("fluidmem: destination must be a fresh machine (no booted OS, no resident pages)")
	}

	// Source side: pause, push resident pages, hand over the metadata.
	image, now, err := src.monitor.ExportVM(src.now, srcPID)
	src.now = now
	if err != nil {
		return fmt.Errorf("fluidmem: export: %w", err)
	}

	// Clear the destination's placeholder VM so its region cannot collide
	// with the imported one.
	if _, err := dst.monitor.UnregisterVM(dst.now, dstPID); err != nil {
		return fmt.Errorf("fluidmem: clear destination: %w", err)
	}

	// The destination resumes no earlier than the source stopped.
	if src.now > dst.now {
		dst.now = src.now
	}
	now, err = dst.monitor.ImportVM(dst.now, image)
	if err != nil {
		return fmt.Errorf("fluidmem: import: %w", err)
	}
	dst.now = now

	// The guest itself (its allocations, OS state) moves wholesale; only its
	// backing changes.
	if err := src.vm.Rebind(dst.monitor); err != nil {
		return err
	}
	dst.vm = src.vm
	dst.os = src.os
	dst.balloon = src.balloon
	src.vm = nil
	src.os = nil
	src.balloon = nil
	return nil
}
