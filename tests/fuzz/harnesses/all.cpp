#include "harnesses.hpp"

namespace tinysdr::fuzz {

void register_builtin_harnesses() {
  static const bool once = [] {
    register_ota_harnesses();
    register_phy_harnesses();
    register_obs_harnesses();
    register_adversary_harnesses();
    register_impair_harnesses();
    return true;
  }();
  (void)once;
}

}  // namespace tinysdr::fuzz
