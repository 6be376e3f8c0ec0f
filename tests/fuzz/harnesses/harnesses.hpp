// The builtin fuzz-harness set.
//
// Each translation unit contributes one register_*() function that adds
// its harnesses to testkit::HarnessRegistry::instance(). Registration is
// explicit — NOT a static initializer — because the harness objects live
// in a static library and the linker is free to drop unreferenced
// initializers; an explicit call chain cannot silently lose a harness.
// Every driver (gtest smoke, tinysdr_fuzz CLI, libFuzzer entry) calls
// register_builtin_harnesses() once at startup and then runs the same
// table.
#pragma once

namespace tinysdr::fuzz {

void register_ota_harnesses();
void register_phy_harnesses();
void register_obs_harnesses();
void register_adversary_harnesses();
void register_impair_harnesses();

/// Registers every builtin harness exactly once (idempotent).
void register_builtin_harnesses();

}  // namespace tinysdr::fuzz
