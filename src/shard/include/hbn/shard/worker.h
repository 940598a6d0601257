// ShardWorker — one shard of the sharded serving engine.
//
// A worker owns an object-space shard and runs the existing
// OnlinePolicy serving stack over it, driven entirely by frames from
// the coordinator (see hbn/shard/wire.h for the protocol):
//
//   Hello      build the full stack from the wire: parse the tree,
//              instantiate the policy, derive the Partition.
//   Epoch      serve the epoch. The frame carries only this shard's
//              touched objects, ascending, one run each; the worker
//              checks every run is owned, in order and inside the
//              payload, decodes the runs straight into its CSR buffers,
//              and runs the single-process per-object epoch body
//              (serve, aggregate, lower-bound delta) over them. Stats
//              returns the shard's integer serve-load and lower-bound
//              deltas and its request count for the coordinator to sum.
//   Decide     the coordinator's global re-placement decision. On
//              replace the worker first joins the row all-gather: it
//              sends the rows of its owned objects touched since the
//              last gather, and receives every shard's, so its matrix
//              is the full matrix the single-process engine holds. Then
//              it opens a HandoffPass over that matrix (handoffs may
//              read other objects' rows: static:placement=
//              extended-nibble steers its mapping by every object's
//              basic loads) and applies the target to every owned
//              object through dynamic::applyHandoffTarget — the same
//              per-object migration step the single-process engine
//              runs — then reports the charged traffic in Migrate.
//   Fin        report the shard summary (FinAck) and return.
//
// Between gathers, the rows of objects another shard owns are stale;
// nothing but a handoff reads them.
//
// Failures ship as Error frames with their serve::Error stage intact
// before the worker exits, so the coordinator rethrows them with full
// attribution and the right process exit code.
#pragma once

#include "hbn/shard/transport.h"

namespace hbn::shard {

/// Runs the worker protocol loop over `transport` until Fin or error.
/// serve::Error (own failures and injected ones alike) is sent to the
/// coordinator as an Error frame and rethrown; transport errors
/// (coordinator death) are rethrown directly.
void runWorker(FramedTransport& transport);

/// Worker entry for a process of its own: wraps `fd` (an AF_UNIX
/// stream socket to the coordinator) and runs runWorker, mapping
/// serve::Error onto its stage exit code (10-17), std::exception onto
/// 1. Never throws.
[[nodiscard]] int runWorkerProcess(int fd) noexcept;

}  // namespace hbn::shard
