// FactorMatrix assembly, L/U extraction, and the dense reference LU.

#include <algorithm>
#include <cmath>

#include "numeric/numeric.hpp"
#include "support/check.hpp"

namespace e2elu::numeric {

std::string ZeroPivotError::describe(index_t column, double value) {
  std::ostringstream os;
  os << "unusable pivot in column " << column << ": ";
  if (value == 0) {
    os << "zero";
  } else {
    os << "non-finite (" << value << ")";
  }
  return os.str();
}

FactorMatrix FactorMatrix::build(const Csr& filled, const Csr& a) {
  E2ELU_CHECK(filled.n == a.n);
  E2ELU_CHECK_MSG(!a.values.empty(), "input matrix has no values");
  FactorMatrix m;
  m.pattern = filled;
  m.pattern.values.clear();
  m.csc = csr_to_csc(m.pattern);
  m.csc.values.assign(static_cast<std::size_t>(m.csc.nnz()), value_t{0});
  m.csr_pos_to_csc = csr_to_csc_position_map(m.pattern, m.csc);

  m.diag_pos.resize(filled.n);
  for (index_t j = 0; j < filled.n; ++j) {
    const auto rows = m.csc.col_rows(j);
    const auto it = std::lower_bound(rows.begin(), rows.end(), j);
    E2ELU_CHECK_MSG(it != rows.end() && *it == j,
                    "filled pattern has no diagonal in column "
                        << j << "; run diagonal matching / patching first");
    m.diag_pos[j] = m.csc.col_ptr[j] + (it - rows.begin());
  }

  // Scatter A's values through the position map: walk A's row and the
  // pattern row together (the pattern is a superset).
  for (index_t i = 0; i < a.n; ++i) {
    offset_t p = m.pattern.row_ptr[i];
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t j = a.col_idx[k];
      while (p < m.pattern.row_ptr[i + 1] && m.pattern.col_idx[p] < j) ++p;
      E2ELU_CHECK_MSG(p < m.pattern.row_ptr[i + 1] && m.pattern.col_idx[p] == j,
                      "filled pattern is missing original entry (" << i << ","
                                                                   << j << ")");
      m.csc.values[m.csr_pos_to_csc[p]] = a.values[k];
    }
  }
  return m;
}

namespace {

/// Mean strictly-lower column length over one level — drives the
/// warp-efficiency estimate for its kernels.
double mean_l_length(const FactorMatrix& m, const scheduling::LevelSchedule& s,
                     index_t l) {
  std::uint64_t total = 0;
  for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
    const index_t j = s.level_cols[k];
    total += static_cast<std::uint64_t>(m.csc.col_ptr[j + 1] -
                                        m.diag_pos[j] - 1);
  }
  const index_t width = s.level_ptr[l + 1] - s.level_ptr[l];
  return width == 0 ? 0.0 : static_cast<double>(total) / width;
}

}  // namespace

LevelPlan build_level_plan(const FactorMatrix& m,
                           const scheduling::LevelSchedule& s,
                           const gpusim::DeviceSpec& spec,
                           const scheduling::FusionOptions& fusion) {
  LevelPlan plan;
  plan.type = scheduling::classify_schedule(s, m.pattern);
  plan.warp_eff.resize(static_cast<std::size_t>(s.num_levels()));
  for (index_t l = 0; l < s.num_levels(); ++l) {
    plan.warp_eff[l] =
        spec.simt_efficiency(std::max(mean_l_length(m, s, l), 1.0));
  }
  plan.clusters = scheduling::build_cluster_schedule(s, spec, fusion);
  return plan;
}

DeviceFactorMatrix::DeviceFactorMatrix(gpusim::Device& device,
                                       const FactorMatrix& m)
    : col_ptr(device, std::span(m.csc.col_ptr)),
      row_ptr(device, std::span(m.pattern.row_ptr)),
      map(device, std::span(m.csr_pos_to_csc)),
      row_idx(device, std::span(m.csc.row_idx)),
      col_idx(device, std::span(m.pattern.col_idx)),
      values(device, std::span(m.csc.values)) {}

void DeviceFactorMatrix::upload_values(const FactorMatrix& m) {
  values.copy_from_host(std::span(m.csc.values));
}

index_t max_parallel_dense_columns(std::size_t free_bytes, index_t n) {
  return static_cast<index_t>(
      std::min<std::size_t>(free_bytes / (static_cast<std::size_t>(n) *
                                          sizeof(value_t)),
                            static_cast<std::size_t>(n)));
}

bool should_use_sparse_format(const gpusim::DeviceSpec& spec, index_t n) {
  // n > L / (TB_max * sizeof(value_t))  <=>  L / (n * sizeof) < TB_max.
  return static_cast<std::size_t>(n) >
         spec.memory_bytes /
             (static_cast<std::size_t>(spec.max_concurrent_blocks) *
              sizeof(value_t));
}

void extract_lu(const FactorMatrix& m, Csr& l, Csr& u) {
  const index_t n = m.n();
  l = Csr(n);
  u = Csr(n);
  // Count per row: L gets strictly-lower entries plus a unit diagonal;
  // U gets the diagonal and above.
  for (index_t i = 0; i < n; ++i) {
    offset_t lc = 1, uc = 0;
    for (offset_t k = m.pattern.row_ptr[i]; k < m.pattern.row_ptr[i + 1];
         ++k) {
      (m.pattern.col_idx[k] < i ? lc : uc) += 1;
    }
    l.row_ptr[i + 1] = l.row_ptr[i] + lc;
    u.row_ptr[i + 1] = u.row_ptr[i] + uc;
  }
  l.col_idx.resize(l.nnz());
  l.values.resize(l.nnz());
  u.col_idx.resize(u.nnz());
  u.values.resize(u.nnz());
  for (index_t i = 0; i < n; ++i) {
    offset_t lw = l.row_ptr[i];
    offset_t uw = u.row_ptr[i];
    for (offset_t k = m.pattern.row_ptr[i]; k < m.pattern.row_ptr[i + 1];
         ++k) {
      const index_t j = m.pattern.col_idx[k];
      const value_t v = m.csc.values[m.csr_pos_to_csc[k]];
      if (j < i) {
        l.col_idx[lw] = j;
        l.values[lw] = v;
        ++lw;
      } else {
        u.col_idx[uw] = j;
        u.values[uw] = v;
        ++uw;
      }
    }
    l.col_idx[lw] = i;  // unit diagonal closes the row
    l.values[lw] = value_t{1};
  }
}

void dense_lu_reference(const Csr& a, std::vector<value_t>& l,
                        std::vector<value_t>& u) {
  const index_t n = a.n;
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<value_t> work(un * un, value_t{0});
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      work[un * i + cols[k]] = vals[k];
    }
  }
  for (index_t k = 0; k < n; ++k) {
    const value_t pivot = work[un * k + k];
    E2ELU_CHECK_MSG(pivot != value_t{0}, "zero pivot at " << k);
    for (index_t i = k + 1; i < n; ++i) {
      work[un * i + k] /= pivot;
      const value_t lik = work[un * i + k];
      if (lik == value_t{0}) continue;
      for (index_t j = k + 1; j < n; ++j) {
        work[un * i + j] -= lik * work[un * k + j];
      }
    }
  }
  l.assign(un * un, value_t{0});
  u.assign(un * un, value_t{0});
  for (index_t i = 0; i < n; ++i) {
    l[un * i + i] = value_t{1};
    for (index_t j = 0; j < i; ++j) l[un * i + j] = work[un * i + j];
    for (index_t j = i; j < n; ++j) u[un * i + j] = work[un * i + j];
  }
}

}  // namespace e2elu::numeric
