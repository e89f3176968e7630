// Dense matrix algebra for the gnsslna library.
//
// A deliberately small, dependency-free dense-matrix layer sized for the
// problems this library actually solves: modified-nodal-analysis systems of a
// few dozen nodes, 2x2 network-parameter blocks, and least-squares Jacobians
// of a few hundred rows.  Row-major storage, value semantics, and partial-
// pivoting LU are entirely adequate at this scale.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace gnsslna::numeric {

/// Returns |x| for real and complex scalars alike (norm helper).
template <typename T>
double scalar_abs(const T& x) {
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    return std::abs(x);
  } else {
    return std::abs(static_cast<double>(x));
  }
}

/// Magnitude used for LU pivot selection: |re| + |im| for complex scalars
/// (the one-norm — equivalent to the modulus within sqrt(2) for pivot
/// quality, and free of the hypot library call that dominated the
/// factorization profile), plain |x| for real scalars.
template <typename T>
double pivot_magnitude(const T& x) {
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    return std::abs(x.real()) + std::abs(x.imag());
  } else {
    return std::abs(static_cast<double>(x));
  }
}

/// Reciprocal used by the LU factor/solve kernels: the naive conj(z)/|z|^2
/// form for complex scalars (two multiplies and one real divide, computed
/// once per pivot and reused as a multiply across the column and the
/// substitutions — replacing the per-entry __divdc3 library calls), plain
/// 1/x for real scalars.  The naive form is safe at the magnitudes LU
/// pivots take in this library (admittance matrices, Jacobians): |z|^2
/// neither overflows nor underflows there.
template <typename T>
T scalar_inverse(const T& x) {
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    const double d = x.real() * x.real() + x.imag() * x.imag();
    const double s = 1.0 / d;
    return T{x.real() * s, -x.imag() * s};
  } else {
    return T{1} / x;
  }
}

/// Dense row-major matrix of `double` or `std::complex<double>`.
///
/// Sized for small/medium problems (MNA systems, Jacobians); all operations
/// are O(n^3) textbook implementations with partial pivoting where relevant.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `value` (default zero).
  Matrix(std::size_t rows, std::size_t cols, T value = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Creates a matrix from nested braces: Matrix<double>{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      if (row.size() != cols_) {
        throw std::invalid_argument("Matrix: ragged initializer list");
      }
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Sets every entry to `value` without touching the allocation.
  void fill(T value = T{}) { std::fill(data_.begin(), data_.end(), value); }

  /// Bounds-checked element access.
  T& at(std::size_t r, std::size_t c) {
    check_index(r, c);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    check_index(r, c);
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& rhs) {
    check_same_shape(rhs);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& rhs) {
    check_same_shape(rhs);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
  }
  Matrix& operator*=(T scalar) {
    for (auto& x : data_) x *= scalar;
    return *this;
  }

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, T scalar) { return lhs *= scalar; }
  friend Matrix operator*(T scalar, Matrix rhs) { return rhs *= scalar; }

  /// Matrix product (O(n^3), no blocking — fine at this scale).
  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_) {
      throw std::invalid_argument("Matrix multiply: inner dimension mismatch");
    }
    Matrix c(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) {
          c(i, j) += aik * b(k, j);
        }
      }
    }
    return c;
  }

  /// Matrix-vector product.
  std::vector<T> operator*(const std::vector<T>& v) const {
    if (cols_ != v.size()) {
      throw std::invalid_argument("Matrix-vector multiply: dimension mismatch");
    }
    std::vector<T> out(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc{};
      for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
      out[i] = acc;
    }
    return out;
  }

  Matrix transpose() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    }
    return t;
  }

  /// Conjugate transpose (equals transpose() for real T).
  Matrix adjoint() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) {
        if constexpr (std::is_same_v<T, std::complex<double>>) {
          t(j, i) = std::conj((*this)(i, j));
        } else {
          t(j, i) = (*this)(i, j);
        }
      }
    }
    return t;
  }

  /// Frobenius norm.
  double norm() const {
    double s = 0.0;
    for (const auto& x : data_) {
      const double a = scalar_abs(x);
      s += a * a;
    }
    return std::sqrt(s);
  }

  bool operator==(const Matrix& rhs) const = default;

 private:
  void check_index(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Matrix: index out of range");
    }
  }
  void check_same_shape(const Matrix& rhs) const {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
      throw std::invalid_argument("Matrix: shape mismatch");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<std::complex<double>>;

/// LU decomposition with partial pivoting; factors are stored packed.
///
/// Pivots are selected by pivot_magnitude (one-norm) and each pivot's
/// reciprocal is computed once via scalar_inverse and stored, so the
/// factorization and both substitutions are multiply-only in the inner
/// loops.  This is the per-call circuit analyses' factorization (the test
/// oracle of the frequency-batched core, circuit/batched.h), and the one
/// that core re-solves a lane with when its static elimination order fails
/// the health check.
///
/// Throws std::domain_error on (numerically) singular input.
template <typename T>
class LuDecomposition {
 public:
  /// Empty decomposition; factor() or refactor() before solving.
  LuDecomposition() = default;

  explicit LuDecomposition(Matrix<T> a) { factor(std::move(a)); }

  bool empty() const { return lu_.empty(); }
  std::size_t size() const { return lu_.rows(); }

  /// Takes ownership of `a` and factorizes it.
  void factor(Matrix<T> a) {
    if (a.rows() != a.cols()) {
      throw std::invalid_argument("LU: matrix must be square");
    }
    lu_ = std::move(a);
    run_factorization();
  }

  /// Copies `a` into the existing factor storage (no reallocation when the
  /// size is unchanged) and factorizes.  This is the workspace-reusing
  /// entry point for repeated same-size solves; the factorization is
  /// bit-identical to constructing a fresh decomposition from `a`.
  void refactor(const Matrix<T>& a) {
    if (a.rows() != a.cols()) {
      throw std::invalid_argument("LU: matrix must be square");
    }
    lu_ = a;
    run_factorization();
  }

  /// Solves A x = b.
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_into(b, x);
    return x;
  }

  /// Solves A x = b into a caller-owned buffer (resized to n; no
  /// allocation once `x` has capacity n).  `x` must not alias `b`.
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) {
      throw std::invalid_argument("LU solve: rhs dimension mismatch");
    }
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    // Forward substitution with unit-lower L.
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
    }
    // Back substitution with U, multiplying by the stored pivot
    // reciprocals instead of dividing.
    for (std::size_t ii = n; ii-- > 0;) {
      for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu_(ii, j) * x[j];
      x[ii] *= dinv_[ii];
    }
  }

  /// Solves the TRANSPOSE system A^T x = b with the same factors
  /// (PA = LU  =>  A^T = U^T L^T P, so: forward substitution with U^T,
  /// back substitution with L^T, then undo the row permutation).  `work`
  /// is an n-sized scratch buffer; no allocation once both have capacity
  /// n.  Neither `x` nor `work` may alias `b`.
  ///
  /// This is the adjoint/reciprocity workhorse: one transpose solve with
  /// e_k yields row k of A^{-1}, i.e. the transfer from EVERY injection
  /// vector to unknown k.
  void solve_transposed_into(const std::vector<T>& b, std::vector<T>& x,
                             std::vector<T>& work) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) {
      throw std::invalid_argument("LU solve: rhs dimension mismatch");
    }
    work.resize(n);
    x.resize(n);
    // Forward substitution with U^T (lower triangular, non-unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[i];
      for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * work[j];
      work[i] = acc * dinv_[i];
    }
    // Back substitution with L^T (upper triangular, unit diagonal).
    for (std::size_t ii = n; ii-- > 0;) {
      for (std::size_t j = ii + 1; j < n; ++j) work[ii] -= lu_(j, ii) * work[j];
    }
    // x = P^T work: row i of the factored system came from row perm_[i].
    for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = work[i];
  }

  /// Solves A X = B for all columns of B with one pair of reused buffers.
  Matrix<T> solve(const Matrix<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.rows() != n) {
      throw std::invalid_argument("LU solve: rhs dimension mismatch");
    }
    Matrix<T> x(n, b.cols());
    std::vector<T> col(n), sol(n);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      solve_into(col, sol);
      for (std::size_t i = 0; i < n; ++i) x(i, j) = sol[i];
    }
    return x;
  }

  T determinant() const {
    T det = (swaps_ % 2 == 0) ? T{1} : T{-1};
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
  }

 private:
  void run_factorization() {
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    swaps_ = 0;

    dinv_.resize(n);

    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivoting: bring the largest remaining pivot_magnitude to
      // row k.
      std::size_t pivot = k;
      double best = pivot_magnitude(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = pivot_magnitude(lu_(i, k));
        if (mag > best) {
          best = mag;
          pivot = i;
        }
      }
      if (best == 0.0) {
        throw std::domain_error("LU: matrix is singular");
      }
      if (pivot != k) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(lu_(k, j), lu_(pivot, j));
        }
        std::swap(perm_[k], perm_[pivot]);
        swaps_++;
      }
      const T pinv = scalar_inverse(lu_(k, k));
      dinv_[k] = pinv;
      for (std::size_t i = k + 1; i < n; ++i) {
        lu_(i, k) *= pinv;
        const T lik = lu_(i, k);
        if (lik == T{}) continue;
        for (std::size_t j = k + 1; j < n; ++j) {
          lu_(i, j) -= lik * lu_(k, j);
        }
      }
    }
  }

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  std::vector<T> dinv_;
  int swaps_ = 0;
};

/// Convenience: solve A x = b in one call.
template <typename T>
std::vector<T> solve(const Matrix<T>& a, const std::vector<T>& b) {
  return LuDecomposition<T>(a).solve(b);
}

/// Convenience: matrix inverse.  Prefer LuDecomposition::solve where possible.
template <typename T>
Matrix<T> inverse(const Matrix<T>& a) {
  return LuDecomposition<T>(a).solve(Matrix<T>::identity(a.rows()));
}

}  // namespace gnsslna::numeric
