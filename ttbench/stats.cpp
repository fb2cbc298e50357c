#include <algorithm>
#include <array>

#include "ttbench.hpp"

namespace ttbench {

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  const std::size_t n = values.size();
  if (n == 0) return q;
  std::sort(values.begin(), values.end());
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // j = i*m // 4 clamped to [1, n-1], interpolated by delta = i*m - 4j.
  const std::size_t m = n + 1;
  std::array<double, 3> cut{};
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Tail tail(std::vector<double> values, double top_percentile) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  static constexpr std::array<double, 3> kLadder = {95.0, 75.0, 50.0};
  for (const double p : kLadder) {
    if (p > top_percentile) continue;
    // Nearest rank, in whole tenths of a percent so the rank is exact.
    const auto tenths = static_cast<std::size_t>(p * 10.0 + 0.5);
    const std::size_t rank = std::max<std::size_t>(1, (tenths * n + 999) / 1000);
    const double value = values[rank - 1];
    const auto beyond = static_cast<std::size_t>(
        values.end() - std::upper_bound(values.begin(), values.end(), value));
    t.percentile = p;
    t.value = value;
    t.beyond = beyond;
    if (beyond >= 10) {
      t.enough = true;
      return t;
    }
  }
  return t;  // the median rung, flagged as not enough samples
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace ttbench
