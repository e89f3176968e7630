// Two-port network parameters and conversions.
//
// The workhorse value type of the RF layer: a 2x2 complex parameter block in
// one of the standard representations (S, Y, Z, ABCD, T) tagged with its
// reference impedance.  Conversions follow the classic Frickey tables
// ("Conversions between S, Z, Y, h, ABCD and T parameters which are valid
// for complex source and load impedances", IEEE T-MTT 1994), specialized to
// a real common reference impedance, which is all this library needs.
#pragma once

#include <array>
#include <complex>
#include <cstddef>

#include "rf/units.h"

namespace gnsslna::rf {

using Complex = std::complex<double>;

/// 2x2 complex block with named accessors for port-parameter use.
struct TwoPortMatrix {
  Complex m11{0.0, 0.0};
  Complex m12{0.0, 0.0};
  Complex m21{0.0, 0.0};
  Complex m22{0.0, 0.0};

  Complex determinant() const { return m11 * m22 - m12 * m21; }

  friend TwoPortMatrix operator*(const TwoPortMatrix& a,
                                 const TwoPortMatrix& b) {
    return {a.m11 * b.m11 + a.m12 * b.m21, a.m11 * b.m12 + a.m12 * b.m22,
            a.m21 * b.m11 + a.m22 * b.m21, a.m21 * b.m12 + a.m22 * b.m22};
  }
  bool operator==(const TwoPortMatrix&) const = default;
};

/// Scattering parameters of a two-port at a single frequency.
struct SParams {
  double frequency_hz = 0.0;
  double z0 = kZ0;  ///< real reference impedance at both ports
  Complex s11, s12, s21, s22;

  TwoPortMatrix matrix() const { return {s11, s12, s21, s22}; }
  Complex determinant() const { return s11 * s22 - s12 * s21; }
};

/// Admittance parameters (I = Y V).
struct YParams {
  double frequency_hz = 0.0;
  Complex y11, y12, y21, y22;
};

/// Lane-major Y-blocks as the nine terms a three-terminal stamp adds to
/// the admittance matrix (Netlist::assemble's expansion, in this row
/// order): y11, y12, -(y11 + y12), y21, y22, -(y21 + y22), -(y11 + y21),
/// -(y12 + y22) and y11 + y12 + y21 + y22.  Term t of lane k is
/// re[t * stride + k] + j im[t * stride + k].  The element lane kernels
/// write these rows directly; a one-lane call reads its Y-block back with
/// y().
struct YTermRows {
  static constexpr std::size_t kTerms = 9;

  double* re = nullptr;
  double* im = nullptr;
  std::size_t stride = 0;

  /// Stores lane k's terms with exactly the component expressions
  /// Netlist::assemble forms (same operand order, so the expansion is
  /// bit-invisible).
  void store(std::size_t k, double r11, double i11, double r12, double i12,
             double r21, double i21, double r22, double i22) const {
    const std::size_t g = stride;
    re[0 * g + k] = r11;
    im[0 * g + k] = i11;
    re[1 * g + k] = r12;
    im[1 * g + k] = i12;
    re[2 * g + k] = -(r11 + r12);
    im[2 * g + k] = -(i11 + i12);
    re[3 * g + k] = r21;
    im[3 * g + k] = i21;
    re[4 * g + k] = r22;
    im[4 * g + k] = i22;
    re[5 * g + k] = -(r21 + r22);
    im[5 * g + k] = -(i21 + i22);
    re[6 * g + k] = -(r11 + r21);
    im[6 * g + k] = -(i11 + i21);
    re[7 * g + k] = -(r12 + r22);
    im[7 * g + k] = -(i12 + i22);
    re[8 * g + k] = r11 + r12 + r21 + r22;
    im[8 * g + k] = i11 + i12 + i21 + i22;
  }

  void store(std::size_t k, const YParams& y) const {
    store(k, y.y11.real(), y.y11.imag(), y.y12.real(), y.y12.imag(),
          y.y21.real(), y.y21.imag(), y.y22.real(), y.y22.imag());
  }

  /// Lane k's Y-block (terms 0, 1, 3 and 4).
  YParams y(std::size_t k, double frequency_hz) const {
    const std::size_t g = stride;
    return {frequency_hz,
            {re[0 * g + k], im[0 * g + k]},
            {re[1 * g + k], im[1 * g + k]},
            {re[3 * g + k], im[3 * g + k]},
            {re[4 * g + k], im[4 * g + k]}};
  }

  /// The rows of lanes [offset, ...): the same stride, shifted origin.
  YTermRows from(std::size_t offset) const {
    return {re + offset, im + offset, stride};
  }
};

/// One lane of term rows in local storage, for the one-lane calls of the
/// element kernels (the netlist closures).
struct YTermLane {
  double re[YTermRows::kTerms];
  double im[YTermRows::kTerms];
  YTermRows rows() { return {re, im, 1}; }
};

/// Lane-major S-parameters: s11, s12, s21 and s22 (rows 0 to 3) of lane k
/// are re[t * stride + k] + j im[t * stride + k].
struct SRows {
  static constexpr std::size_t kS11 = 0, kS12 = 1, kS21 = 2, kS22 = 3;

  double* re = nullptr;
  double* im = nullptr;
  std::size_t stride = 0;

  Complex at(std::size_t t, std::size_t k) const {
    return {re[t * stride + k], im[t * stride + k]};
  }
  /// The rows of lanes [offset, ...): the same stride, shifted origin.
  SRows from(std::size_t offset) const {
    return {re + offset, im + offset, stride};
  }
};

/// Impedance parameters (V = Z I).
struct ZParams {
  double frequency_hz = 0.0;
  Complex z11, z12, z21, z22;
};

/// Chain (ABCD) parameters: [V1; I1] = [A B; C D] [V2; -I2].
struct AbcdParams {
  double frequency_hz = 0.0;
  Complex a{1.0, 0.0}, b, c, d{1.0, 0.0};

  /// Cascade: this network followed by `next`.
  AbcdParams cascade(const AbcdParams& next) const {
    return {frequency_hz, a * next.a + b * next.c, a * next.b + b * next.d,
            c * next.a + d * next.c, c * next.b + d * next.d};
  }
};

/// Converts S -> Y (both ports referenced to s.z0).
YParams y_from_s(const SParams& s);
/// Converts Y -> S with reference impedance z0.
SParams s_from_y(const YParams& y, double z0 = kZ0);

/// Converts S -> Z.
ZParams z_from_s(const SParams& s);
/// Converts Z -> S with reference impedance z0.
SParams s_from_z(const ZParams& z, double z0 = kZ0);

/// Converts S -> ABCD.
AbcdParams abcd_from_s(const SParams& s);
/// Converts ABCD -> S with reference impedance z0.
SParams s_from_abcd(const AbcdParams& abcd, double z0 = kZ0);

/// Cascades two two-ports given as S-parameters (same z0 required).
SParams cascade(const SParams& first, const SParams& second);

/// Converts ABCD -> Y directly (B != 0 required).
YParams y_from_abcd(const AbcdParams& abcd);

/// Wave-cascading (transfer scattering) parameters:
/// [b1; a1] = T [a2; b2].  Cascading two-ports is plain matrix product in
/// T — the numerically preferred route for long chains of S-blocks.
struct TParams {
  double frequency_hz = 0.0;
  double z0 = kZ0;
  Complex t11, t12, t21, t22;
};

/// Converts S -> T (requires S21 != 0).
TParams t_from_s(const SParams& s);
/// Converts T -> S (requires T22 != 0... see implementation for the
/// convention used).
SParams s_from_t(const TParams& t);
/// Cascade via T-parameters; same z0/frequency required.
SParams cascade_t(const SParams& first, const SParams& second);

/// Fixture de-embedding: given the measured cascade
/// `total = fixture_in * dut * fixture_out` and the two (calibrated)
/// fixture halves, recovers the DUT:  T_dut = T_in^{-1} T_total T_out^{-1}.
/// Throws std::domain_error when a fixture half is not invertible (S21=0).
SParams deembed(const SParams& total, const SParams& fixture_in,
                const SParams& fixture_out);

/// Elementary ABCD blocks used to assemble ladder matching networks.
AbcdParams abcd_series_impedance(double frequency_hz, Complex z);
AbcdParams abcd_shunt_admittance(double frequency_hz, Complex y);
/// Ideal lossless transmission line of characteristic impedance z0 and
/// electrical length theta_rad at the given frequency.
AbcdParams abcd_ideal_line(double frequency_hz, double z0, double theta_rad);

/// S-parameters of common one/two-port idealizations (unit tests + sanity).
SParams s_identity(double frequency_hz, double z0 = kZ0);   ///< thru
SParams s_series_impedance(double frequency_hz, Complex z, double z0 = kZ0);
SParams s_shunt_admittance(double frequency_hz, Complex y, double z0 = kZ0);

}  // namespace gnsslna::rf
