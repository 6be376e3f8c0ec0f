// Per-node pins of whole OTA campaigns: for the Fig. 14 campus campaigns
// (LoRa FPGA, BLE FPGA, MCU) and a fault campaign with burst-loss,
// brownout, flash-fault and attacker scenarios, every node's success,
// failure cause, total time, total energy (hexfloat, so bit-exact),
// compressed bytes, retransmissions and A/B slot. A change to how the
// access point prepares or the node decodes an image must leave all of
// them unchanged.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "adversary/ota_attacker.hpp"
#include "obs/metrics.hpp"
#include "testbed/campaign.hpp"

namespace tinysdr::testbed {
namespace {

const char* slot_name(ota::Slot slot) {
  switch (slot) {
    case ota::Slot::kA: return "A";
    case ota::Slot::kB: return "B";
    case ota::Slot::kGolden: return "golden";
  }
  return "?";
}

std::string pin(const ota::UpdateReport& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%d %s %a %a %zu %zu %s", r.success ? 1 : 0,
                ota::to_string(r.failure), r.total_time.value(),
                r.total_energy.value(), r.compressed_bytes,
                r.transfer.retransmissions,
                r.slot ? slot_name(*r.slot) : "-");
  return buf;
}

std::vector<std::string> pins(const std::vector<ota::UpdateReport>& reports) {
  std::vector<std::string> out;
  for (const auto& r : reports) out.push_back(pin(r));
  return out;
}

const std::vector<std::string> kFig14LoraFpga{
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.15093ecee847ap+7 0x1.0aa59668d797cp+13 111203 0 -",
    "1 none 0x1.154c7c3b5a60cp+7 0x1.0ae9e0cafb794p+13 111203 2 -",
    "1 none 0x1.156e1af1936d5p+7 0x1.0b0c05fc0d6ap+13 111203 3 -",
    "1 none 0x1.199487a296affp+7 0x1.0ef1d307c457p+13 111203 30 -",
    "1 none 0x1.2f6393943c79ap+7 0x1.23daa566a15a6p+13 111203 180 -",
};

const std::vector<std::string> kFig14BleFpga{
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ec7ba0cf44139p+5 0x1.d81bac21b0a42p+11 49240 0 -",
    "1 none 0x1.ede0ab1518333p+5 0x1.d9864a909c145p+11 49240 2 -",
    "1 none 0x1.ed5a303c3400fp+5 0x1.d8fdb5cc54514p+11 49240 1 -",
    "1 none 0x1.ed9b7657a144bp+5 0x1.d94001002f4a2p+11 49240 2 -",
    "1 none 0x1.0a825714cfd44p+6 0x1.ff5b91eacdb9dp+11 49240 70 -",
};

const std::vector<std::string> kFig14Mcu{
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ef8aeca5c3b28p+4 0x1.c6ef135aff8e9p+10 23125 2 -",
    "1 none 0x1.ee64cc808a3d1p+4 0x1.c5c45ab531334p+10 23125 1 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.160872bc54647p+5 0x1.00c11f587757cp+11 23125 55 -",
};

const std::vector<std::string> kFaultBaseline{
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ed57d6cec1d88p+4 0x1.c4b3312ca1ad2p+10 23125 0 -",
    "1 none 0x1.ee7161ba42c58p+4 0x1.c5d12243d09ddp+10 23125 1 -",
    "1 none 0x1.19e55ca236abcp+5 0x1.03e1709c36ca4p+11 23125 60 -",
};

const std::vector<std::string> kFaultBurst{
    "1 none 0x1.790d54a364a71p+5 0x1.5a2be7b8cddbp+11 23125 212 A",
    "1 none 0x1.6124af9e5d00ep+5 0x1.45494603060d3p+11 23125 174 A",
    "1 none 0x1.6feebbc6896f7p+5 0x1.5077e2ce834ecp+11 23125 192 A",
    "1 none 0x1.53a29074cc0e5p+5 0x1.364c38fc8d4cfp+11 23125 145 A",
    "1 none 0x1.4b2301b3d38b5p+5 0x1.2e7e9fb6d6895p+11 23125 130 A",
    "1 none 0x1.743b0042ba435p+5 0x1.3353d75680076p+11 23125 137 A",
    "1 none 0x1.59a70db20e8edp+5 0x1.3cbbfb61f80aep+11 23125 157 A",
    "1 none 0x1.32e09a3036b3dp+5 0x1.177347289ff9dp+11 23125 89 A",
    "1 none 0x1.47e1f650c8fap+5 0x1.2b7bdbece7bd5p+11 23125 126 A",
    "1 none 0x1.304be4968c536p+5 0x1.1306b168afb44p+11 23125 80 A",
    "1 none 0x1.4223127acb2c2p+5 0x1.264c62edf85e6p+11 23125 116 A",
    "1 none 0x1.5de050c9bb539p+5 0x1.40fe3c19783f7p+11 23125 166 A",
    "1 none 0x1.3bbb77cc5e9dp+5 0x1.1fa583f17e24bp+11 23125 103 A",
    "1 none 0x1.4bab86bd9327ap+5 0x1.2f7a387eb90b9p+11 23125 134 A",
    "1 none 0x1.93bea14c8aa51p+5 0x1.4100a18436236p+11 23125 161 A",
    "1 none 0x1.4d046f21952fdp+5 0x1.30145fa71c012p+11 23125 133 A",
    "1 none 0x1.3866de82761bap+5 0x1.1c693e25c1f92p+11 23125 98 A",
    "1 none 0x1.2a53aefac913fp+5 0x1.0f390da69e2c7p+11 23125 74 A",
    "1 none 0x1.23d380d7a01a5p+5 0x1.08f605b461638p+11 23125 63 A",
    "1 none 0x1.541d546048c98p+5 0x1.36d0cf64433e9p+11 23125 145 A",
};

const std::vector<std::string> kFaultBrownout{
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.08d54e3739dd3p+5 0x1.dda17f53762d9p+10 23125 16 A",
    "1 none 0x1.09eed922baca3p+5 0x1.dfdd6181d40efp+10 23125 18 A",
    "1 none 0x1.1736b98c1c8dfp+5 0x1.fa30faf17c3dfp+10 23125 42 A",
};

const std::vector<std::string> kFaultFlash{
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.c4baecd078575p+4 0x1.b433721d53d0ap+10 23125 0 -",
    "0 image-verify 0x1.fbbfd2e94685cp+4 0x1.e8e43aa79bbeap+10 23125 47 -",
};

const std::vector<std::string> kFaultAttacked{
    "1 none 0x1.4962a892d0058p+5 0x1.2caf5dc4c3b1dp+11 23125 128 A",
    "1 none 0x1.18815ecbdc977p+5 0x1.fb939ca7440b9p+10 23125 42 A",
    "1 none 0x1.5ebbde8f0b546p+5 0x1.4027610ba00f8p+11 23125 161 A",
    "1 none 0x1.3ff3a1df579dep+5 0x1.22f4f51329703p+11 23125 109 A",
    "1 none 0x1.3411c3328e7cdp+5 0x1.187ba77f21e6cp+11 23125 91 A",
    "1 none 0x1.3f6faf0b900b1p+5 0x1.221fb2f7252dbp+11 23125 107 A",
    "1 none 0x1.4b1e825db2167p+5 0x1.2dcfb446b0868p+11 23125 129 A",
    "1 none 0x1.4123ea7c7f617p+5 0x1.2453986c5f6c8p+11 23125 111 A",
    "1 none 0x1.459ef7ce777bbp+5 0x1.27eaec104b6f7p+11 23125 118 A",
    "1 none 0x1.5f05c710698dcp+5 0x1.4040f028dee4bp+11 23125 162 A",
    "1 none 0x1.7aaa0b27f0926p+5 0x1.5abbacbd4f4ap+11 23125 210 A",
    "1 none 0x1.7f4fd98332d81p+5 0x1.5bb7458531cc4p+11 23125 212 A",
    "1 none 0x1.4a867b6b4f8dep+5 0x1.2c1a0171dc844p+11 23125 125 A",
    "1 none 0x1.3cf7fb75cbe91p+5 0x1.201aed5fd6c7ep+11 23125 104 A",
    "1 none 0x1.64aa99c32969p+5 0x1.41f43d92f5031p+11 23125 165 A",
    "1 none 0x1.739ded77dc632p+5 0x1.538f6ae035281p+11 23125 197 A",
    "1 none 0x1.3e56502a5923ep+5 0x1.20b2af1d7bd98p+11 23125 104 A",
    "1 none 0x1.362afe6cf72e9p+5 0x1.18e37ce5f1289p+11 23125 89 A",
    "1 none 0x1.35ac133fed0a3p+5 0x1.190508bc53a06p+11 23125 91 A",
    "1 none 0x1.478be7bbdac0dp+5 0x1.2a60504076b09p+11 23125 122 A",
};

/// Fig. 14's fleet and images, as bench_fig14_ota_cdf builds them.
struct Fig14 {
  Deployment deployment;
  fpga::FirmwareImage lora_fpga, ble_fpga, mcu;
};

Fig14 fig14() {
  Rng deploy_rng{2024};
  Deployment deployment = Deployment::campus(deploy_rng);
  Rng img_rng{7};
  auto lora = fpga::generate_bitstream(fpga::lora_rx_design(8),
                                       fpga::DeviceSpec{}, img_rng);
  auto ble = fpga::generate_bitstream(fpga::ble_tx_design(),
                                      fpga::DeviceSpec{}, img_rng);
  auto mcu = fpga::generate_mcu_program("mcu_fw", 78 * 1024, img_rng);
  return {std::move(deployment), std::move(lora), std::move(ble),
          std::move(mcu)};
}

std::vector<FaultScenario> pinned_scenarios() {
  channel::GilbertElliottParams burst{0.05, 0.30, 0.0, 0.9};
  std::vector<FaultScenario> scenarios(4);
  scenarios[0].name = "burst-loss";
  scenarios[0].plan.burst = burst;
  scenarios[0].policy.max_retries = 200;
  scenarios[1].name = "brownout@8kB";
  scenarios[1].plan.brownout_at_byte = 8 * 1024;
  scenarios[2].name = "flash-faults";
  scenarios[2].plan.page_program_failure_rate = 1.0;
  scenarios[2].plan.flash_fault_region = sim::FlashRegion{
      ota::FirmwareStore::kSlotABase,
      ota::FirmwareStore::kGoldenBase - ota::FirmwareStore::kSlotABase};
  adversary::OtaAttackPlan attack;
  attack.jam_rate = 0.08;
  attack.replay_rate = 0.08;
  attack.forge_ack_rate = 0.05;
  scenarios[3].name = "attacked";
  scenarios[3].policy.max_retries = 200;
  scenarios[3].make_attacker = adversary::attacker_factory(attack);
  return scenarios;
}

TEST(CampaignPins, Fig14CampusCampaigns) {
  const Fig14 f = fig14();
  struct Job {
    const fpga::FirmwareImage* image;
    ota::UpdateTarget target;
    const std::vector<std::string>* want;
  } jobs[] = {
      {&f.lora_fpga, ota::UpdateTarget::kFpga, &kFig14LoraFpga},
      {&f.ble_fpga, ota::UpdateTarget::kFpga, &kFig14BleFpga},
      {&f.mcu, ota::UpdateTarget::kMcu, &kFig14Mcu},
  };
  for (const auto& job : jobs) {
    Rng rng{99};
    auto result = run_campaign(f.deployment, *job.image, job.target, rng,
                               exec::ExecPolicy::with_threads(4));
    EXPECT_EQ(pins(result.per_node), *job.want) << job.image->name;
  }
}

TEST(CampaignPins, FaultCampaignScenarios) {
  const Fig14 f = fig14();
  Rng rng{99};
  auto result = run_fault_campaign(f.deployment, f.mcu,
                                   ota::UpdateTarget::kMcu, pinned_scenarios(),
                                   rng, exec::ExecPolicy::with_threads(4));
  EXPECT_EQ(pins(result.baseline.per_node), kFaultBaseline);
  ASSERT_EQ(result.scenarios.size(), 4u);
  EXPECT_EQ(pins(result.scenarios[0].per_node), kFaultBurst);
  EXPECT_EQ(pins(result.scenarios[1].per_node), kFaultBrownout);
  EXPECT_EQ(pins(result.scenarios[2].per_node), kFaultFlash);
  EXPECT_EQ(pins(result.scenarios[3].per_node), kFaultAttacked);
}

// The access point compresses an image once per campaign: the count does
// not grow with the fleet or with the number of fault passes.
TEST(CampaignPins, CompressesOncePerCampaign) {
  Rng img_rng{5};
  auto image = fpga::generate_mcu_program("fw", 8 * 1024, img_rng);
  auto compressions = [](const obs::Registry& registry) {
    return registry.counters().at("ota.images_compressed").value();
  };
  for (std::size_t nodes : {std::size_t{3}, std::size_t{9}}) {
    Rng deploy_rng{2024};
    auto deployment = Deployment::campus(deploy_rng, Dbm{14.0}, nodes);
    {
      obs::Registry registry;
      obs::MetricsSession session{registry};
      Rng rng{1};
      auto result = run_campaign(deployment, image, ota::UpdateTarget::kMcu,
                                 rng, exec::ExecPolicy::with_threads(2));
      ASSERT_EQ(result.per_node.size(), nodes);
      EXPECT_EQ(compressions(registry), 1.0) << nodes << " nodes";
    }
    for (std::size_t passes : {std::size_t{1}, std::size_t{3}}) {
      std::vector<FaultScenario> scenarios(passes);
      for (std::size_t k = 0; k < passes; ++k) {
        scenarios[k].name = "brownout-" + std::to_string(k);
        scenarios[k].plan.brownout_at_byte = 1024 * (k + 1);
      }
      obs::Registry registry;
      obs::MetricsSession session{registry};
      Rng rng{1};
      auto result =
          run_fault_campaign(deployment, image, ota::UpdateTarget::kMcu,
                             scenarios, rng, exec::ExecPolicy::with_threads(2));
      ASSERT_EQ(result.scenarios.size(), passes);
      EXPECT_EQ(compressions(registry), 1.0)
          << nodes << " nodes, " << passes << " fault passes";
    }
  }
}

}  // namespace
}  // namespace tinysdr::testbed
