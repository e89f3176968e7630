// Default complex arithmetic, called by name, for the tabulation-arithmetic
// pins.
//
// Every target that links the library compiles with GCC's
// -fcx-fortran-rules (src/CMakeLists.txt): `a / b` on std::complex<double>
// is then Smith's algorithm inlined, and `a * b` drops its NaN rescue.  The
// pins compare the library with the complex semantics it had without the
// flag, which are libgcc's __divdc3 and __muldc3 (GCC's default inlines
// a * b and calls __muldc3 only when both parts come out NaN; __muldc3
// computes the same products first).  Calling them by name makes the
// reference independent of how the test file itself is compiled, at any
// optimization level.
#pragma once

#include <complex>

extern "C" __complex__ double __divdc3(double, double, double, double);
extern "C" __complex__ double __muldc3(double, double, double, double);

namespace gnsslna::reference {

/// a / b as libgcc's __divdc3 computes it.
inline std::complex<double> libgcc_div(std::complex<double> a,
                                       std::complex<double> b) {
  const __complex__ double q =
      __divdc3(a.real(), a.imag(), b.real(), b.imag());
  return {__real__ q, __imag__ q};
}

/// a * b as libgcc's __muldc3 computes it.
inline std::complex<double> libgcc_mul(std::complex<double> a,
                                       std::complex<double> b) {
  const __complex__ double p =
      __muldc3(a.real(), a.imag(), b.real(), b.imag());
  return {__real__ p, __imag__ p};
}

}  // namespace gnsslna::reference
