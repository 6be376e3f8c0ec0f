// RF front-end models: the SE2435L (sub-GHz) and SKY66112 (2.4 GHz)
// PA/LNA chips with their bypass switches (paper §3.1.1, §3.2.3). The
// ADG904 RF switch that shares the 900 MHz antenna between the I/Q radio
// and the OTA backbone radio appears only in the cost table
// (core/platform_db.cpp): no simulated path depends on its position.
#pragma once

#include <stdexcept>
#include <string>

#include "common/units.hpp"

namespace tinysdr::radio {

enum class FrontendMode {
  kSleep,      ///< both PA and LNA off (1 uA)
  kBypass,     ///< signal routed around PA/LNA (280 uA max)
  kTransmit,   ///< PA active
  kReceive,    ///< LNA active
};

/// Parameters for one front-end chip.
struct FrontendSpec {
  std::string name;
  Dbm max_output{27.0};
  double sleep_current_ua = 1.0;
  double bypass_current_ua = 280.0;
};

/// SE2435L: 900 MHz front-end, up to +30 dBm.
[[nodiscard]] FrontendSpec se2435l_spec();
/// SKY66112: 2.4 GHz front-end, up to +27 dBm.
[[nodiscard]] FrontendSpec sky66112_spec();

/// One PA/LNA front-end instance with mode control.
class Frontend {
 public:
  explicit Frontend(FrontendSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const FrontendSpec& spec() const { return spec_; }
  [[nodiscard]] FrontendMode mode() const { return mode_; }
  void set_mode(FrontendMode mode) { mode_ = mode; }

 private:
  FrontendSpec spec_;
  FrontendMode mode_ = FrontendMode::kSleep;
};

}  // namespace tinysdr::radio
