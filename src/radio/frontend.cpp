#include "radio/frontend.hpp"

namespace tinysdr::radio {

FrontendSpec se2435l_spec() {
  FrontendSpec spec;
  spec.name = "SE2435L";
  spec.max_output = Dbm{30.0};
  spec.sleep_current_ua = 1.0;
  spec.bypass_current_ua = 280.0;
  return spec;
}

FrontendSpec sky66112_spec() {
  FrontendSpec spec;
  spec.name = "SKY66112";
  spec.max_output = Dbm{27.0};
  spec.sleep_current_ua = 1.0;
  spec.bypass_current_ua = 280.0;
  return spec;
}

}  // namespace tinysdr::radio
