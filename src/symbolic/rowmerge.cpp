#include <algorithm>
#include <bit>

#include "preprocess/preprocess.hpp"
#include "support/check.hpp"
#include "symbolic/symbolic.hpp"

namespace e2elu::symbolic {

Csr symbolic_rowmerge(const Csr& a, std::uint64_t* ops) {
  const index_t n = a.n;
  std::uint64_t work = 0;
  Csr out(n);
  out.col_idx.reserve(static_cast<std::size_t>(a.nnz()) * 2);

  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> below(words, 0);
  // upper_start[j]: position of the first column > j in finished row j.
  std::vector<offset_t> upper_start(static_cast<std::size_t>(n), 0);

  for (index_t i = 0; i < n; ++i) {
    const std::size_t row_words = (static_cast<std::size_t>(i) + 64) / 64;
    std::fill(below.begin(), below.begin() + row_words, 0);
    const std::size_t start = out.col_idx.size();

    auto add = [&](index_t k) {
      if (stamp[k] == i) return;
      stamp[k] = i;
      out.col_idx.push_back(k);
      if (k < i) below[static_cast<std::size_t>(k) / 64] |=
          std::uint64_t{1} << (k % 64);
    };

    for (index_t j : a.row_cols(i)) add(j);
    work += a.row_cols(i).size();

    // Ascending merge over the below-diagonal part, picking up rows the
    // merges themselves introduce (their contributions are all > j, so a
    // forward word scan with re-reads never misses one).
    for (std::size_t w = 0; w < row_words; ++w) {
      std::uint64_t word = below[w];
      while (word != 0) {
        const index_t j = static_cast<index_t>(w * 64 + std::countr_zero(word));
        for (offset_t p = upper_start[j]; p < out.row_ptr[j + 1]; ++p) {
          add(out.col_idx[p]);
        }
        work += static_cast<std::uint64_t>(out.row_ptr[j + 1] - upper_start[j]);
        const int bit = j % 64;
        const std::uint64_t done =
            bit == 63 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << (bit + 1)) - 1);
        word = below[w] & ~done;
      }
    }

    std::sort(out.col_idx.begin() + start, out.col_idx.end());
    out.row_ptr[i + 1] = static_cast<offset_t>(out.col_idx.size());
    const auto row_begin = out.col_idx.begin() + start;
    const auto it = std::upper_bound(row_begin, out.col_idx.end(), i);
    upper_start[i] = static_cast<offset_t>(it - out.col_idx.begin());
    work += out.col_idx.size() - start;  // sort + emit
  }
  if (ops) *ops += work;
  return out;
}

offset_t fill_of_ordering(const Csr& a, const std::vector<index_t>& p) {
  Csr pattern = a;
  pattern.values.clear();  // permute/rowmerge only need the structure
  return symbolic_rowmerge(permute(pattern, p, p)).nnz();
}

}  // namespace e2elu::symbolic
