#include "optimize/multi_objective.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace gnsslna::optimize {

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("dominates: dimension mismatch");
  }
  bool strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<std::vector<double>>& points) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j != i && dominates(points[j], points[i])) dominated = true;
    }
    if (!dominated) keep.push_back(i);
  }
  return keep;
}

std::vector<std::vector<double>> pareto_front(
    std::vector<std::vector<double>> points) {
  const std::vector<std::size_t> keep = non_dominated_indices(points);
  std::vector<std::vector<double>> front;
  front.reserve(keep.size());
  for (const std::size_t i : keep) front.push_back(std::move(points[i]));
  return front;
}

double hypervolume_2d(const std::vector<std::vector<double>>& front,
                      const std::vector<double>& reference) {
  if (reference.size() != 2) {
    throw std::invalid_argument("hypervolume_2d: reference must be 2-D");
  }
  std::vector<std::vector<double>> pts = pareto_front(front);
  for (const auto& p : pts) {
    if (p.size() != 2) {
      throw std::invalid_argument("hypervolume_2d: points must be 2-D");
    }
    if (p[0] > reference[0] || p[1] > reference[1]) {
      throw std::invalid_argument(
          "hypervolume_2d: reference must dominate every front point");
    }
  }
  std::sort(pts.begin(), pts.end());
  double volume = 0.0;
  double prev_x = reference[0];
  // Sweep right-to-left: each point adds a rectangle up to the previous x.
  for (auto it = pts.rbegin(); it != pts.rend(); ++it) {
    volume += (prev_x - (*it)[0]) * (reference[1] - (*it)[1]);
    prev_x = (*it)[0];
  }
  return volume;
}

double spacing(const std::vector<std::vector<double>>& front) {
  if (front.size() < 2) {
    throw std::invalid_argument("spacing: need at least 2 points");
  }
  std::vector<double> d(front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (j == i) continue;
      double l1 = 0.0;
      for (std::size_t k = 0; k < front[i].size(); ++k) {
        l1 += std::abs(front[i][k] - front[j][k]);
      }
      best = std::min(best, l1);
    }
    d[i] = best;
  }
  const double mean =
      std::accumulate(d.begin(), d.end(), 0.0) / static_cast<double>(d.size());
  double var = 0.0;
  for (const double v : d) var += (v - mean) * (v - mean);
  return std::sqrt(var / static_cast<double>(d.size() - 1));
}

}  // namespace gnsslna::optimize
