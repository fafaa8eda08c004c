// Package cluster scales the serve stack horizontally over the wire
// layer: a coordinator consistent-hashes the fleet spec's offices onto
// named workers and serves each worker its gid-stamped sub-spec; each
// worker runs an ordinary serve.Server over its shard, forwarding
// epoch-tagged wire frames; and a stream router merges the worker
// streams back into one globally-ordered action stream.
//
// The pieces compose into the topology DEPLOYMENT.md documents:
//
//	feeder ──ticks──▶ worker 1 ─┐
//	feeder ──ticks──▶ worker 2 ─┼─tagged frames─▶ router ─▶ merged stream
//	feeder ──ticks──▶ worker 3 ─┘
//	            ▲ sub-specs
//	       coordinator
//
// Three invariants carry the whole design:
//
//   - Stable sharding. Office names are placed on a consistent-hash
//     ring (Ring), so a worker joining or leaving moves only the
//     offices that hash to the changed arcs — every other office stays
//     where it is, keeping its learned state.
//
//   - One global ID space. The coordinator stamps every office with a
//     cluster-wide gid, assigned by a monotonic counter in spec order
//     and never reused, and each worker runs the office under that gid;
//     an office that moves workers (or changes config) gets a fresh
//     gid, exactly mirroring the remove+add a single-process
//     reconciler would apply. That makes the merged
//     stream byte-identical to a single reference fleet running the
//     same spec — the property the cluster e2e test enforces.
//
//   - Epoch-aligned merging. A single producer drives every dispatch
//     with POST /v1/ticks?flush=1&epoch=K against every worker, so
//     each worker emits exactly one tagged frame per epoch — empty
//     epochs included. The router buffers per-source epochs, advances
//     a watermark (the minimum epoch across identified sources), and
//     emits each epoch's per-worker runs merged in time order. Within
//     an epoch the workers' office sets are disjoint, so the merge
//     reconstructs the reference fleet's batch exactly.
package cluster
