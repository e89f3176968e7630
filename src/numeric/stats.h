// Descriptive statistics used by the benchmark harness and robust fitting.
#pragma once

#include <cstddef>
#include <vector>

namespace gnsslna::numeric {

/// Arithmetic mean.  Throws std::invalid_argument on empty input.
double mean(const std::vector<double>& v);

/// Sample standard deviation (n-1 denominator); zero for size-1 input.
double stddev(const std::vector<double>& v);

/// Median (averages the two central values for even sizes).
double median(std::vector<double> v);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Median absolute deviation, scaled by 1.4826 so it estimates sigma for
/// Gaussian data.  The robust spread estimator used in extraction step 3.
double mad_sigma(const std::vector<double>& v);

/// Inverse standard-normal CDF (probit), p in (0, 1); returns -inf/+inf at
/// the closed endpoints.  Acklam's rational approximation, |relative
/// error| < 1.2e-9 — a fixed polynomial evaluation (no iterative
/// refinement), so the result is a pure deterministic function of p.
/// This is how the Sobol sampler maps uniforms to Gaussian tolerance
/// draws: quantile transform instead of Box-Muller, because QMC points
/// must map one coordinate to one variate to preserve the net structure.
double normal_quantile(double p);

/// Wilson score confidence interval for a binomial proportion.
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Wilson interval on successes/trials at normal quantile z (default
/// two-sided 95%).  Unlike the Wald interval it never leaves [0, 1] and
/// stays honest at pass rates near 0 or 1 — exactly the small-n yield
/// regime.  trials == 0 returns the vacuous [0, 1].
WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z = 1.959963984540054);

}  // namespace gnsslna::numeric
