// Multi-objective utilities: dominance, fronts and quality indicators.
#pragma once

#include <cstddef>
#include <vector>

namespace gnsslna::optimize {

/// True iff a dominates b (all components <=, at least one <).
bool dominates(const std::vector<double>& a, const std::vector<double>& b);

/// Indices of the non-dominated points of a set.
std::vector<std::size_t> non_dominated_indices(
    const std::vector<std::vector<double>>& points);

/// Filters a set down to its non-dominated subset (stable order).
std::vector<std::vector<double>> pareto_front(
    std::vector<std::vector<double>> points);

/// Hypervolume (area) dominated by a bi-objective front relative to a
/// reference point that must be dominated by every front point.
double hypervolume_2d(const std::vector<std::vector<double>>& front,
                      const std::vector<double>& reference);

/// Schott's spacing metric: stddev of nearest-neighbour L1 distances.
/// Lower is a more uniform front.  Requires >= 2 points.
double spacing(const std::vector<std::vector<double>>& front);

}  // namespace gnsslna::optimize
