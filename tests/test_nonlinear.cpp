#include <gtest/gtest.h>

#include <cmath>

#include "nonlinear/power_series.h"
#include "nonlinear/two_tone.h"

namespace gnsslna::nonlinear {
namespace {

device::Phemt ref() { return device::Phemt::reference_device(); }

amplifier::LnaDesign default_lna() {
  amplifier::AmplifierConfig config;
  return amplifier::LnaDesign(ref(), config, amplifier::DesignVector{});
}

TEST(PowerSeries, Ip3InPhemtBallpark) {
  const PowerSeriesIp3 r = device_ip3(ref(), {-0.35, 2.0});
  // L-band pHEMTs: device IIP3 typically -10..+15 dBm.
  EXPECT_GT(r.iip3_dbm, -15.0);
  EXPECT_LT(r.iip3_dbm, 25.0);
  EXPECT_GT(r.a_iip3_v, r.a_1db_v);  // intercept above compression
}

TEST(PowerSeries, CompressionRoughlyTenDbBelowIntercept) {
  const PowerSeriesIp3 r = device_ip3(ref(), {-0.35, 2.0});
  // Classic rule of thumb: P1dB ~ IIP3 - 9.6 dB (exact for a pure cubic).
  EXPECT_NEAR(r.iip3_dbm - r.p_1db_in_dbm, 9.6, 0.2);
}

TEST(PowerSeries, OffDeviceThrows) {
  EXPECT_THROW(device_ip3(ref(), {-3.0, 2.0}), std::domain_error);
}

TEST(TwoTone, ToneGridValidation) {
  const amplifier::LnaDesign lna = default_lna();
  TwoToneOptions bad;
  bad.f1_hz = 1575e6;
  bad.f2_hz = 1575e6;  // f2 <= f1
  EXPECT_THROW(two_tone_point(lna, -30.0, bad), std::invalid_argument);
  bad.f2_hz = 1575.5001e6;  // not on a common grid
  EXPECT_THROW(two_tone_point(lna, -30.0, bad), std::invalid_argument);
}

TEST(TwoTone, SmallSignalGainMatchesLinearAnalysis) {
  const amplifier::LnaDesign lna = default_lna();
  const TwoTonePoint pt = two_tone_point(lna, -50.0);
  const double s21_db = rf::db20(lna.s_params(1575e6).s21);
  EXPECT_NEAR(pt.gain_db, s21_db, 0.1);
}

TEST(TwoTone, Im3SlopeIsThree) {
  const amplifier::LnaDesign lna = default_lna();
  const TwoToneSweep sweep = two_tone_sweep(lna, -45.0, -20.0, 6);
  EXPECT_NEAR(sweep.im3_slope, 3.0, 0.15);
}

TEST(TwoTone, FundamentalSlopeIsOneAtLowDrive) {
  const amplifier::LnaDesign lna = default_lna();
  const TwoTonePoint a = two_tone_point(lna, -45.0);
  const TwoTonePoint b = two_tone_point(lna, -40.0);
  EXPECT_NEAR(b.p_fund_dbm - a.p_fund_dbm, 5.0, 0.05);
}

TEST(TwoTone, InterceptConsistentAcrossDriveLevels) {
  // OIP3 inferred from two different low-drive points must agree.
  const amplifier::LnaDesign lna = default_lna();
  const TwoTonePoint a = two_tone_point(lna, -45.0);
  const TwoTonePoint b = two_tone_point(lna, -38.0);
  const double oip3_a = a.p_fund_dbm + 0.5 * (a.p_fund_dbm - a.p_im3_dbm);
  const double oip3_b = b.p_fund_dbm + 0.5 * (b.p_fund_dbm - b.p_im3_dbm);
  EXPECT_NEAR(oip3_a, oip3_b, 0.5);
}

TEST(TwoTone, SweepReportsPlausibleLnaIntercept) {
  const amplifier::LnaDesign lna = default_lna();
  const TwoToneSweep sweep = two_tone_sweep(lna, -45.0, -15.0, 7);
  // GNSS pHEMT LNA: OIP3 typically +15..+40 dBm.
  EXPECT_GT(sweep.oip3_dbm, 5.0);
  EXPECT_LT(sweep.oip3_dbm, 45.0);
  EXPECT_GT(sweep.oip3_dbm, sweep.iip3_dbm);  // it has gain
}

TEST(TwoTone, DeviceIp3AndCircuitIp3WithinAFewDb) {
  // The power-series device estimate and the full two-tone circuit result
  // should agree within the matching-network corrections (~6 dB).
  const amplifier::LnaDesign lna = default_lna();
  const TwoToneSweep sweep = two_tone_sweep(lna, -45.0, -25.0, 5);
  const PowerSeriesIp3 ps =
      device_ip3(ref(), {lna.design().vgs, lna.design().vds});
  EXPECT_NEAR(sweep.iip3_dbm, ps.iip3_dbm, 8.0);
}

TEST(TwoTone, SweepValidation) {
  const amplifier::LnaDesign lna = default_lna();
  EXPECT_THROW(two_tone_sweep(lna, -10.0, -20.0, 5), std::invalid_argument);
  EXPECT_THROW(two_tone_sweep(lna, -30.0, -20.0, 2), std::invalid_argument);
}

}  // namespace
}  // namespace gnsslna::nonlinear
