#include "amplifier/topology.h"

#include <numbers>
#include <stdexcept>

#include "rf/sweep.h"

namespace gnsslna::amplifier {

std::vector<double> DesignVector::to_vector() const {
  return {vgs,     vds,        l_in_m,   l_in2_m,  l_shunt_h, c_mid_f,
          l_out_m, c_out_sh_f, l_out2_m, l_sdeg_h, c_in_f,    r_fb_ohm};
}

DesignVector DesignVector::from_vector(const std::vector<double>& x) {
  if (x.size() != kDimension) {
    throw std::invalid_argument("DesignVector::from_vector: size mismatch");
  }
  DesignVector d;
  d.vgs = x[0];
  d.vds = x[1];
  d.l_in_m = x[2];
  d.l_in2_m = x[3];
  d.l_shunt_h = x[4];
  d.c_mid_f = x[5];
  d.l_out_m = x[6];
  d.c_out_sh_f = x[7];
  d.l_out2_m = x[8];
  d.l_sdeg_h = x[9];
  d.c_in_f = x[10];
  d.r_fb_ohm = x[11];
  return d;
}

optimize::Bounds DesignVector::bounds() {
  return optimize::Bounds(
      // vgs   vds  l_in1  l_in2  Lsh   Cmid     l_out1 Cout     l_out2 Lsdeg  Cin
      {-0.60, 1.0, 1e-3, 1e-3, 1e-9, 0.2e-12, 1e-3, 0.2e-12, 1e-3, 0.1e-9,
       2e-12, 150.0},
      {-0.05, 4.0, 40e-3, 40e-3, 30e-9, 5e-12, 40e-3, 5e-12, 40e-3, 3e-9,
       100e-12, 6000.0});
}

const std::vector<std::string>& DesignVector::names() {
  static const std::vector<std::string> kNames = {
      "Vgs [V]",      "Vds [V]",      "l_in1 [m]",    "l_in2 [m]",
      "L_shunt [H]",  "C_mid [F]",    "l_out1 [m]",   "C_out_sh [F]",
      "l_out2 [m]",   "L_s_deg [H]",  "C_in [F]",     "R_fb [ohm]"};
  return kNames;
}

void AmplifierConfig::resolve() {
  substrate.validate();
  const double f_centre =
      0.5 * (rf::kGnssBandLowHz + rf::kGnssBandHighHz);
  if (w50_m <= 0.0) {
    w50_m = microstrip::synthesize_width(substrate, rf::kZ0, f_centre);
  }
  if (l_bias_m <= 0.0) {
    // Quarter-wave at band centre: the bias tap looks open where it
    // matters most.
    l_bias_m = microstrip::length_for_electrical(
        substrate, w_bias_m, std::numbers::pi / 2.0, f_centre);
  }
}

BiasNetwork design_bias(const device::Phemt& device, const DesignVector& d,
                        const AmplifierConfig& config) {
  if (d.vds >= config.vdd) {
    throw std::domain_error("design_bias: vds must be below vdd");
  }
  BiasNetwork b;
  b.id_a = device.drain_current({d.vgs, d.vds});
  if (b.id_a < 1e-4) {
    throw std::domain_error("design_bias: drain current below 0.1 mA");
  }
  b.r_drain = (config.vdd - d.vds) / b.id_a;
  b.vg_bias = d.vgs;  // source is at DC ground (inductive degeneration)
  return b;
}

}  // namespace gnsslna::amplifier
