// Concurrent LoRa reception on an IoT endpoint (paper §6).
//
// Research question: can a low-power endpoint decode multiple concurrent
// LoRa transmissions in real time? Orthogonal chirp slopes (different
// SF/BW combinations) can share a channel; tinySDR instantiates one
// dechirp+FFT branch per configuration on the FPGA, sharing the
// deserializer/FIR front end. This module sizes that receiver: its FPGA
// design and platform power. The Fig. 15 decode quality is measured by
// phy::LinkSimulator with a phy::PhyTxInterferer (bench_fig15a/15b).
#pragma once

#include <vector>

#include "fpga/resources.hpp"
#include "lora/params.hpp"
#include "power/platform_power.hpp"

namespace tinysdr::core {

class ConcurrentReceiver {
 public:
  /// @param configs  one LoRa configuration per branch; all slopes must
  ///                 differ (checked) for orthogonality
  explicit ConcurrentReceiver(std::vector<lora::LoraParams> configs);

  /// FPGA design implementing this receiver (shares the front end).
  [[nodiscard]] fpga::Design design() const;

  /// Platform power while running it (paper: 207 mW for the dual-SF8 case).
  [[nodiscard]] Milliwatts platform_power() const;

 private:
  std::vector<lora::LoraParams> configs_;
};

}  // namespace tinysdr::core
