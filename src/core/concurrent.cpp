#include "core/concurrent.hpp"

#include <stdexcept>

namespace tinysdr::core {

ConcurrentReceiver::ConcurrentReceiver(std::vector<lora::LoraParams> configs)
    : configs_(std::move(configs)) {
  if (configs_.size() < 2)
    throw std::invalid_argument("ConcurrentReceiver: need >= 2 branches");
  for (std::size_t i = 0; i < configs_.size(); ++i)
    for (std::size_t j = i + 1; j < configs_.size(); ++j)
      if (!lora::orthogonal(configs_[i], configs_[j]))
        throw std::invalid_argument(
            "ConcurrentReceiver: branch chirp slopes must differ");
}

fpga::Design ConcurrentReceiver::design() const {
  std::vector<int> sfs;
  sfs.reserve(configs_.size());
  for (const auto& cfg : configs_) sfs.push_back(cfg.sf);
  return fpga::concurrent_rx_design(sfs);
}

Milliwatts ConcurrentReceiver::platform_power() const {
  power::PlatformPowerModel model;
  return model.draw_with_design(power::Activity::kConcurrentReceive,
                                design());
}

}  // namespace tinysdr::core
