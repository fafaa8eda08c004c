package main

import (
	"bytes"
	"context"
	"fmt"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/serve"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// reference is the synchronous oracle the tapped stream must equal: the
// daemon's fleet and ingestor construction over the same resolved spec,
// fed the identical Push/PushInput sequence and flushed at the same
// boundaries, collecting every dispatched batch. Because dispatch is
// flush-driven and office IDs assign in spec order (in a cluster, gids
// do the same), the daemon's action stream is byte-identical to it: one
// frame per non-empty batch, so the reference also says which flush,
// and so which slot, emitted every tapped frame.
type reference struct {
	fleet   *engine.Fleet
	ing     *stream.Ingestor
	offices int
	batches [][]engine.OfficeAction
	// slots[i] is the online slot whose flush dispatched batches[i], or
	// -1 for the training day; slot is the one being pushed.
	slots []int
	slot  int
}

func newReference(rawSpec []byte) (*reference, error) {
	spec, err := serve.ParseSpec(rawSpec)
	if err != nil {
		return nil, err
	}
	resolved, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	perOffice := make(map[int]core.Config, len(resolved))
	for i, ro := range resolved {
		perOffice[i] = ro.Config
	}
	fleet, err := engine.NewFleet(engine.FleetConfig{
		Offices:   len(resolved),
		System:    resolved[0].Config,
		PerOffice: perOffice,
	})
	if err != nil {
		return nil, fmt.Errorf("reference fleet: %w", err)
	}
	r := &reference{fleet: fleet, offices: len(resolved), slot: -1}
	r.ing, err = stream.NewIngestor(fleet, stream.Config{
		Queue: queueCap,
		// OnBatch runs on the dispatcher goroutine and Flush returns only
		// after it does, so the caller reads batches after each Flush.
		OnBatch: func(batch []engine.OfficeAction) {
			r.batches = append(r.batches, append([]engine.OfficeAction(nil), batch...))
			r.slots = append(r.slots, r.slot)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("reference ingestor: %w", err)
	}
	return r, nil
}

func (r *reference) close() { r.ing.Close() }

// window pushes one window for every office and flushes, as one POST
// with ?flush=1 (or one epoch across all workers) does.
func (r *reference) window(p *plan, w window) error {
	if err := p.push(r.ing, w, allOffices(r.offices)); err != nil {
		return fmt.Errorf("reference push: %w", err)
	}
	return r.ing.Flush()
}

// runReference trains a reference and drives every online slot the run
// sent through it, flushing after each.
func runReference(ctx context.Context, rawSpec []byte, p *plan, slots int) (*reference, error) {
	ref, err := newReference(rawSpec)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if err := ref.train(p); err != nil {
		return nil, err
	}
	for s := 0; s < slots; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ref.slot = s
		if err := ref.window(p, p.onlineSlot(s)); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// train mirrors the training day and /v1/train: flush, then finish
// training in ascending ID order.
func (r *reference) train(p *plan) error {
	for w := 0; w < p.trainWindows(); w++ {
		if err := r.window(p, p.trainingWindow(w)); err != nil {
			return err
		}
	}
	for id := 0; id < r.offices; id++ {
		if r.fleet.System(id).Phase() == core.PhaseTraining {
			if err := r.fleet.FinishTrainingOffice(id); err != nil {
				return fmt.Errorf("reference train office %d: %w", id, err)
			}
		}
	}
	return nil
}

// frames renders the collected batches as the codec-1 frame stream the
// daemon serves, and counts the actions.
func (r *reference) frames() ([]byte, int, error) {
	var out []byte
	actions := 0
	for _, b := range r.batches {
		var err error
		if out, err = wire.AppendFrame(out, wire.V1JSONL, b); err != nil {
			return nil, 0, err
		}
		actions += len(b)
	}
	return out, actions, nil
}

// verify fails the run unless the tapped stream equals the reference's
// frames and the reference produced actions at all.
func verify(r *result, t *tap, ref *reference) error {
	want, actions, err := ref.frames()
	if err != nil {
		return err
	}
	if err := checkStream(t, want); err != nil {
		r.fail("%v", err)
	}
	if actions == 0 {
		r.fail("the reference produced no actions")
	}
	return nil
}

// checkStream compares the tapped stream with the reference frames and
// describes the first divergence.
func checkStream(t *tap, want []byte) error {
	if bytes.Equal(t.raw, want) {
		return nil
	}
	for i, f := range t.frames {
		if f.end > len(want) || !bytes.Equal(t.raw[f.off:f.end], want[f.off:f.end]) {
			return fmt.Errorf("action stream diverged from the reference at frame %d (%d stream bytes, %d reference bytes)", i, len(t.raw), len(want))
		}
	}
	return fmt.Errorf("action stream ended after %d frames (%d bytes); the reference has %d bytes", len(t.frames), len(t.raw), len(want))
}
