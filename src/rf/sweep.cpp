#include "rf/sweep.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gnsslna::rf {

std::vector<double> linear_grid(double lo, double hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("linear_grid: n must be >= 1");
  if (hi < lo) throw std::invalid_argument("linear_grid: hi < lo");
  if (n == 1) return {lo};
  std::vector<double> g(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) g[i] = lo + step * static_cast<double>(i);
  g.back() = hi;  // guard against accumulation error at the endpoint
  return g;
}

std::vector<double> group_delay(const SweepData& sweep) {
  if (sweep.size() < 2) {
    throw std::invalid_argument("group_delay: need at least 2 points");
  }
  // Unwrapped S21 phase.
  std::vector<double> phase(sweep.size());
  phase[0] = std::arg(sweep[0].s21);
  constexpr double kPi = 3.14159265358979323846;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    double p = std::arg(sweep[i].s21);
    double prev = phase[i - 1];
    while (p - prev > kPi) p -= 2.0 * kPi;
    while (p - prev < -kPi) p += 2.0 * kPi;
    phase[i] = p;
  }
  std::vector<double> tau(sweep.size());
  const auto omega = [&](std::size_t i) {
    return 2.0 * kPi * sweep[i].frequency_hz;
  };
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (i == 0) {
      tau[i] = -(phase[1] - phase[0]) / (omega(1) - omega(0));
    } else if (i + 1 == sweep.size()) {
      tau[i] = -(phase[i] - phase[i - 1]) / (omega(i) - omega(i - 1));
    } else {
      tau[i] = -(phase[i + 1] - phase[i - 1]) / (omega(i + 1) - omega(i - 1));
    }
  }
  return tau;
}

double group_delay_ripple(const SweepData& sweep) {
  const std::vector<double> tau = group_delay(sweep);
  const auto [lo, hi] = std::minmax_element(tau.begin(), tau.end());
  return *hi - *lo;
}

}  // namespace gnsslna::rf
