// Symbolic factorization drivers — the paper's §3.2.
//
// All drivers compute the same object: the sparsity pattern of As = L+U,
// the filled matrix, as a sorted CSR. They differ in where the per-row
// O(n) traversal scratch lives and how rows are scheduled:
//
//   symbolic_reference   sequential host code; correctness oracle.
//   symbolic_cpu         multithreaded host fill2 — the symbolic phase of
//                        the "modified GLU3.0" baseline (Figure 4).
//
// The device drivers are row runners of one two-stage skeleton
// (out_of_core.cpp): symbolic_1 counts each row's fill, a device prefix
// sum sizes the pattern, symbolic_2 writes and sorts it. Each supplies
// only its scratch placement and its row schedule:
//
//   symbolic_out_of_core Algorithm 3: rows in chunks sized so the scratch
//                        fits in device memory, explicit data movement.
//   symbolic_out_of_core_dynamic
//                        Algorithm 4: dynamic parallelism assignment —
//                        rows are split at the point where the frontier
//                        reaches 50% of its peak; the low-frontier prefix
//                        runs with bounded queues and therefore larger
//                        chunks (Figure 7).
//   symbolic_unified_memory
//                        scratch in managed memory, one launch for all
//                        rows per stage; optional prefetching (Figures
//                        5/6, Table 3).
//   count_fill_out_of_core
//                        Algorithm 3's stage 1 alone: nnz(L+U) without
//                        the pattern (the parallel ordering's fill gate).
//
// The three out-of-core drivers take an optional span of stage-1 counts
// (count_fill_out_of_core's per-row output for exactly their input
// pattern): they upload it and skip symbolic_1. Stage 2 still checks each
// row against it. The unified-memory and CPU drivers count for
// themselves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"
#include "matrix/csr.hpp"

namespace e2elu::symbolic {

/// Common result of every driver.
struct SymbolicResult {
  Csr filled;  ///< pattern of As = L+U (values empty), rows sorted
  std::vector<index_t> fill_count;  ///< per-row As row lengths
  std::uint64_t ops = 0;            ///< traversal work items
  index_t chunk_rows = 0;           ///< chunk_size used (0: not chunked)
  index_t num_chunks = 0;           ///< number of kernel iterations/stage
};

/// Tuning knobs shared by the GPU drivers. (SIMT lane-efficiency comes
/// from gpusim::DeviceSpec::simt_efficiency, not from here.)
struct SymbolicOptions {
  /// Algorithm 4: a "large" frontier is this fraction of the peak.
  double large_frontier_fraction = 0.5;
  /// Algorithm 4: rows sampled to estimate the frontier-growth curve.
  index_t planner_samples = 48;
  /// Algorithm 4: bounded-queue safety margin over the sampled peak.
  double queue_bound_margin = 2.0;
};

/// Sequential reference (host). No device involved.
SymbolicResult symbolic_reference(const Csr& a);

/// Multithreaded host implementation on the global thread pool;
/// modeled time = ops / HostSpec throughput.
SymbolicResult symbolic_cpu(const Csr& a);

/// Algorithm 3. Throws OutOfDeviceMemory only if even a single row's
/// scratch plus the matrix cannot fit. Non-empty `stage1_counts` (one per
/// row, else a check fails) replace symbolic_1 with one upload.
SymbolicResult symbolic_out_of_core(
    gpusim::Device& device, const Csr& a, const SymbolicOptions& opt = {},
    std::span<const index_t> stage1_counts = {});

/// Algorithm 4 (equivalent to symbolic_out_of_core_multipart with 2
/// parts).
SymbolicResult symbolic_out_of_core_dynamic(
    gpusim::Device& device, const Csr& a, const SymbolicOptions& opt = {},
    std::span<const index_t> stage1_counts = {});

/// Generalization of Algorithm 4 to `parts` partitions — the extension
/// §3.2 notes can be explored ("using more than 2 phases ... will also
/// imply more kernel launches"). The low-frontier prefix [0, n1) is
/// subdivided into parts-1 ranges, each with queues bounded by its own
/// sampled frontier peak, so earlier ranges get even larger chunks; the
/// high-frontier tail always runs with full-size scratch. parts == 1 is
/// exactly Algorithm 3; parts == 2 is exactly Algorithm 4.
SymbolicResult symbolic_out_of_core_multipart(
    gpusim::Device& device, const Csr& a, index_t parts,
    const SymbolicOptions& opt = {},
    std::span<const index_t> stage1_counts = {});

/// Algorithm 3's stage 1 (symbolic_1) alone: nnz(L+U) of `a`, counted
/// one block per source row with the per-row scratch chunked to the
/// device's free memory (halving the chunk when the allocation fails).
/// `kernel` names the launches. Same counts as symbolic_out_of_core's
/// fill_count, without stage 2 or the pattern allocation. The per-row
/// counts come back to the host (one charged copy) and are summed there;
/// they land in `row_counts` when it is non-null.
offset_t count_fill_out_of_core(gpusim::Device& device, const Csr& a,
                                const char* kernel,
                                std::vector<index_t>* row_counts = nullptr);

/// Unified-memory driver; `prefetch` enables cudaMemPrefetchAsync-style
/// staging of each row window's fill arrays.
SymbolicResult symbolic_unified_memory(gpusim::Device& device, const Csr& a,
                                       bool prefetch,
                                       const SymbolicOptions& opt = {});

/// Brute-force filled pattern via symbolic Gaussian elimination —
/// O(n * nnz(As)) with set operations; the test oracle for Theorem 1.
Csr symbolic_elimination_oracle(const Csr& a);

/// Fast exact symbolic factorization by left-looking row merging:
/// pattern(i) = A(i,:) merged with the upper parts of every already-
/// computed row j < i appearing in pattern(i). Produces the identical
/// pattern to fill2 in O(sum |L(i,:)| * |U(j,:)|) — far cheaper than the
/// per-row reachability for low-fill matrices, but inherently sequential
/// across rows (each row needs finished earlier rows), which is exactly
/// why the GPU path uses fill2 instead. Used as a second oracle and to
/// prepare the huge Table 4 inputs. `ops` (optional) accumulates the
/// merge work performed (entries emitted, merge-scan visits).
Csr symbolic_rowmerge(const Csr& a, std::uint64_t* ops = nullptr);

/// Frontier profiler (Figure 3): returns, for every source row, the peak
/// frontier size reached while traversing that row.
std::vector<index_t> frontier_profile(const Csr& a);

/// Fill-quality audit hook for ordering comparisons: nnz(L+U) of A
/// symmetrically permuted by `p` (rowmerge oracle on the permuted
/// pattern, host only). The parallel-preprocessing bench gates the GPU
/// AMD against the serial oracle with this number, and the tests check
/// the parallel ordering's on-device fill gate (count_fill_out_of_core)
/// against it.
offset_t fill_of_ordering(const Csr& a, const std::vector<index_t>& p);

}  // namespace e2elu::symbolic
