#include "numeric/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gnsslna::numeric {

namespace {
void require_nonempty(const std::vector<double>& v, const char* who) {
  if (v.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty input");
  }
}
}  // namespace

double mean(const std::vector<double>& v) {
  require_nonempty(v, "mean");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) {
  require_nonempty(v, "stddev");
  if (v.size() == 1) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (const double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

double median(std::vector<double> v) {
  require_nonempty(v, "median");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double p) {
  require_nonempty(v, "percentile");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p must be in [0, 100]");
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double mad_sigma(const std::vector<double>& v) {
  require_nonempty(v, "mad_sigma");
  const double med = median(v);
  std::vector<double> dev(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) dev[i] = std::abs(v[i] - med);
  return 1.4826 * median(std::move(dev));
}

double normal_quantile(double p) {
  // Acklam's rational approximation to the probit function: central
  // rational minimax fit plus two tail fits in sqrt(-2 log p).
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  static constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                  -2.759285104469687e+02, 1.383577518672690e+02,
                                  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                  -2.400758277161838e+00, -2.549732539343734e+00,
                                  4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z) {
  if (trials == 0) return {0.0, 1.0};
  if (successes > trials) {
    throw std::invalid_argument("wilson_interval: successes > trials");
  }
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {center - half, center + half};
}

}  // namespace gnsslna::numeric
