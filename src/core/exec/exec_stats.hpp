// Execution statistics.
//
// Collected per back-end node during query execution; these are exactly
// the quantities the paper's Figures 8 and 9 plot: total query execution
// time, per-processor communication volume, and per-processor computation
// time (split by phase).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats_util.hpp"

namespace adr {

/// One traced interval of a node actively working in a phase.  Gaps
/// between a node's spans are time spent waiting (for messages, the
/// sliding window, or a barrier).
struct PhaseSpan {
  int node = 0;
  int tile = 0;
  /// 0=Initialization 1=Local Reduction 2=Global Combine 3=Output.
  int phase = 0;
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const { return end_s - start_s; }
};

const char* phase_name(int phase);

struct NodeStats {
  std::uint64_t chunks_read = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_received = 0;
  /// Aggregation (input chunk, accumulator chunk) pairs processed here.
  std::uint64_t lr_pairs = 0;
  /// Ghost merges performed here (global combine).
  std::uint64_t combines = 0;
  /// Accumulator chunks initialized here (local + ghost).
  std::uint64_t inits = 0;
  /// Output chunks finalized here.
  std::uint64_t outputs = 0;

  /// Cost-model compute seconds charged per phase.
  double compute_init_s = 0.0;
  double compute_lr_s = 0.0;
  double compute_gc_s = 0.0;
  double compute_oh_s = 0.0;
  /// CPU time spent packing/unpacking messages (software messaging is
  /// CPU-mediated on the modelled machine).
  double compute_comm_s = 0.0;

  double compute_total_s() const {
    return compute_init_s + compute_lr_s + compute_gc_s + compute_oh_s +
           compute_comm_s;
  }

  /// Peak accumulator bytes resident at once (tiling memory check).
  std::uint64_t peak_accum_bytes = 0;
};

struct ExecStats {
  std::vector<NodeStats> nodes;

  /// Elapsed seconds per phase, summed over tiles (executor clock).
  double phase_init_s = 0.0;
  double phase_lr_s = 0.0;
  double phase_gc_s = 0.0;
  double phase_oh_s = 0.0;
  /// End-to-end query execution time (executor clock).
  double total_s = 0.0;
  /// Node-runtime CPU seconds billed to the run (thread backend; 0 on
  /// the simulator).  total_s is wall time — the gap between them is
  /// I/O and synchronization wait.
  double thread_cpu_s = 0.0;
  int tiles = 0;

  /// Cross-query chunk-cache traffic attributed to this query (thread
  /// backend with CachingChunkStore; all zero otherwise).  The cache sits
  /// below the engine, so chunks_read / bytes_read above are unchanged —
  /// these say how many of those reads were served from memory.  Under
  /// concurrent submits the attribution is approximate (counters are
  /// shared across in-flight queries).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  /// Per-node phase timeline (populated when ExecOptions::record_trace).
  std::vector<PhaseSpan> trace;

  std::uint64_t total_bytes_sent() const;
  std::uint64_t total_bytes_read() const;
  std::uint64_t total_lr_pairs() const;

  /// Per-node communication volume (bytes sent), as in paper Fig. 9(a-b).
  Summary comm_volume() const;
  /// Per-node compute time, as in paper Fig. 9(c-d).
  Summary compute_time() const;

  std::string summary() const;
};

/// Renders the trace as an ASCII Gantt chart, one row per node:
/// I/L/G/O mark the active phase, '.' marks waiting.  Empty string when
/// the stats carry no trace.
std::string render_gantt(const ExecStats& stats, int width = 96);

/// Dumps the trace as CSV (node,tile,phase,start_s,end_s).
void trace_to_csv(const ExecStats& stats, std::ostream& os);

}  // namespace adr
