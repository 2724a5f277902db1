package engine

import (
	"errors"
	"fmt"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
)

// This file implements warm-state checkpointing for the engine. A warm
// image has two halves:
//
// Machine half — serialized at the warm->measure boundary: the engine
// clock and per-context fetch-stream state, each core's branch
// predictor and TLB hierarchy, and the whole memory system (caches
// with directory state, prefetchers, per-core counters, DRAM
// controllers).
//
// Generator half — the workload's shared structures
// (RunConfig.SaveShared), every thread's generator state (emitter RNG,
// call stack, program state, buffered residue), and the engine's
// undrained per-context fetch buffers.
//
// Restore is a pure load: no part of the warmup instruction stream is
// re-executed, so fork cost is independent of WarmupInsts. A run asked
// to checkpoint whose generators cannot all serialize fails instead of
// writing an image it could not restore. The differential harness in
// internal/core proves restore(save(warm)) + measure == warm + measure
// byte-for-byte.

// statefulGen is the generator side of a checkpoint: trace.StepGen
// implements it when its program is Stateful.
type statefulGen interface {
	CanSave() bool
	SaveState(w *checkpoint.Writer)
	LoadState(rd *checkpoint.Reader)
}

// checkSaveable reports why the run's generator half cannot be
// serialized, nil when it can.
func checkSaveable(cfg RunConfig, cores []*core) error {
	if cfg.SaveShared == nil || cfg.LoadShared == nil {
		return errors.New("the run has no shared-state saver and loader")
	}
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			if sg, ok := ctx.gen.(statefulGen); !ok || !sg.CanSave() {
				return fmt.Errorf("thread %d's generator cannot serialize its state", ctx.tid)
			}
		}
	}
	return nil
}

// saveMachine serializes the complete warm image: machine half, then
// generator half. Callers check checkSaveable first.
func saveMachine(cfg RunConfig, clock int64, cores []*core, mem *cache.System) *checkpoint.Snapshot {
	w := checkpoint.NewWriter()
	w.Tag("engine")
	w.I64(cfg.WarmupInsts)
	w.I64(clock)
	w.U32(uint32(len(cores)))
	for _, co := range cores {
		w.U32(uint32(co.id))
		w.U32(uint32(len(co.ctxs)))
		for _, ctx := range co.ctxs {
			w.U64(ctx.warmLine)
			w.U64(ctx.warmPage)
		}
		co.bp.SaveState(w)
		co.tlbs.SaveState(w)
	}
	mem.SaveState(w)

	w.Tag("generators")
	cfg.SaveShared(w)
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			ctx.gen.(statefulGen).SaveState(w)
			// The engine-side fetch buffer: instructions already pulled
			// from the generator but not yet consumed by warming.
			residual := ctx.buf[ctx.bufPos:ctx.bufLen]
			w.U32(uint32(len(residual)))
			if len(residual) > 0 {
				w.Struct(residual)
			}
			w.Bool(ctx.eof)
		}
	}
	return w.Snapshot(cfg.CheckpointKey)
}

// restoreRun loads a snapshot written by saveMachine into a
// freshly-built machine of identical configuration: machine state,
// workload shared state, per-thread generator state, and the engine's
// fetch buffers. Nothing executes; fork cost is a deserialization.
func restoreRun(snap *checkpoint.Snapshot, cfg RunConfig, cores []*core, mem *cache.System, clock *int64) error {
	r := snap.Reader()
	r.Expect("engine")
	if wi := r.I64(); r.Err() == nil && wi != cfg.WarmupInsts {
		return fmt.Errorf("engine: snapshot warmed %d instructions per thread, run wants %d", wi, cfg.WarmupInsts)
	}
	*clock = r.I64()
	if n := int(r.U32()); r.Err() == nil && n != len(cores) {
		return fmt.Errorf("engine: snapshot has %d active cores, run has %d", n, len(cores))
	}
	for _, co := range cores {
		if id := int(r.U32()); r.Err() == nil && id != co.id {
			return fmt.Errorf("engine: snapshot core id %d does not match run core %d", id, co.id)
		}
		if n := int(r.U32()); r.Err() == nil && n != len(co.ctxs) {
			return fmt.Errorf("engine: snapshot has %d contexts on core %d, run has %d", n, co.id, len(co.ctxs))
		}
		for _, ctx := range co.ctxs {
			ctx.warmLine = r.U64()
			ctx.warmPage = r.U64()
		}
		co.bp.LoadState(r)
		co.tlbs.LoadState(r)
	}
	if err := mem.LoadState(r); err != nil {
		return fmt.Errorf("engine: %w", err)
	}

	r.Expect("generators")
	if err := checkSaveable(cfg, cores); err != nil {
		return fmt.Errorf("engine: cannot restore a live image: %w", err)
	}
	cfg.LoadShared(r)
	if err := r.Err(); err != nil {
		return err
	}
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			ctx.gen.(statefulGen).LoadState(r)
			n := int(r.U32())
			if r.Err() == nil && n > len(ctx.buf) {
				return fmt.Errorf("engine: snapshot fetch buffer (%d insts) exceeds context capacity (%d)", n, len(ctx.buf))
			}
			if r.Err() != nil {
				return r.Err()
			}
			if n > 0 {
				r.Struct(ctx.buf[:n])
			}
			ctx.bufPos, ctx.bufLen = 0, n
			ctx.eof = r.Bool()
		}
	}
	return r.Err()
}
