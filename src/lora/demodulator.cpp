#include "lora/demodulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/profile.hpp"

namespace tinysdr::lora {

namespace {
/// Minimum dechirped peak-to-mean ratio (dB) to consider a window as
/// holding a chirp. Noise-only windows peak around 7.5 dB for N=256; real
/// preambles at the sensitivity knee sit well above 10 dB.
constexpr double kDetectThresholdDb = 6.0;

/// Circular distance between FFT bins.
std::uint32_t bin_distance(std::uint32_t a, std::uint32_t b, std::uint32_t n) {
  std::uint32_t d = (a >= b) ? a - b : b - a;
  return std::min(d, n - d);
}

/// The paper's up/down detector: the base chirp whose dechirped FFT peak
/// stands higher gives the direction.
ChirpDirection direction_of(double up_db, double down_db) {
  return up_db >= down_db ? ChirpDirection::kUp : ChirpDirection::kDown;
}
}  // namespace

Demodulator::Demodulator(LoraParams params, Hertz sample_rate,
                         std::size_t fir_taps)
    : params_(params),
      oversampling_(0),
      // Cutoff at 0.7*BW keeps the chirp band edge flat through the short
      // filter's wide transition band while still rejecting far noise.
      fir_(dsp::design_lowpass(
          fir_taps,
          std::min(0.5,
                   0.7 * params.bandwidth.value() / sample_rate.value()))),
      chirps_(params, params.bandwidth),
      fft_(params.chips()) {
  params_.validate();
  double ratio = sample_rate.value() / params_.bandwidth.value();
  auto os = static_cast<std::uint32_t>(std::lround(ratio));
  if (os < 1 || std::abs(ratio - static_cast<double>(os)) > 1e-6)
    throw std::invalid_argument(
        "Demodulator: sample rate must be an integer multiple of BW");
  oversampling_ = os;
  base_up_ = chirps_.base_upchirp();
  base_down_ = chirps_.base_downchirp();
}

dsp::Samples Demodulator::condition(std::span<const dsp::Complex> rf) const {
  // At critical sampling there is no out-of-band region for the FIR to
  // remove, and its even length would inject a half-sample delay the
  // symbol-aligned FFT cannot absorb; the hardware runs the filter at the
  // 4 MHz radio rate where the residual (0.5/oversampling samples) is
  // negligible.
  if (oversampling_ == 1) return dsp::Samples{rf.begin(), rf.end()};

  // Fresh filter state per block (the FPGA pipeline resets between
  // receptions): decimate() starts from zero history and computes only
  // the kept outputs. Group delay compensation: the first kept output is
  // the one at (taps-1)/2.
  dsp::Samples out(rf.size() / oversampling_ + 1);
  out.resize(fir_.decimate(rf, (fir_.tap_count() - 1) / 2, oversampling_,
                           out));
  return out;
}

std::pair<std::size_t, double> Demodulator::dechirp_peak(
    std::span<const dsp::Complex> window, const dsp::Samples& base,
    std::span<dsp::Complex> scratch) const {
  obs::ProfileScope prof{"lora_dechirp"};
  const std::size_t n = params_.chips();
  if (window.size() < n)
    throw std::invalid_argument("dechirp_peak: window too small");
  std::span<dsp::Complex> prod = scratch.first(n);
  for (std::size_t i = 0; i < n; ++i)
    prod[i] = window[i] * std::conj(base[i]);
  fft_.forward(prod);

  std::size_t best = 0;
  double best_mag = -1.0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double m = std::norm(prod[i]);
    total += m;
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  double mean = (total - best_mag) / static_cast<double>(n - 1);
  double ratio_db =
      10.0 * std::log10(std::max(best_mag, 1e-30) / std::max(mean, 1e-30));
  return {best, ratio_db};
}

std::uint32_t Demodulator::demodulate_symbol(
    std::span<const dsp::Complex> window) const {
  dsp::Samples scratch(params_.chips());
  return static_cast<std::uint32_t>(
      dechirp_peak(window, base_up_, scratch).first);
}

bool Demodulator::channel_activity(std::span<const dsp::Complex> conditioned,
                                   double threshold_db) const {
  const std::size_t n = params_.chips();
  dsp::Samples scratch(n);
  for (std::size_t k = 0; k < 2; ++k) {
    if ((k + 1) * n > conditioned.size()) break;
    if (dechirp_peak(conditioned.subspan(k * n, n), base_up_, scratch)
            .second > threshold_db)
      return true;
  }
  return false;
}

std::vector<std::uint32_t> Demodulator::demodulate_aligned(
    std::span<const dsp::Complex> conditioned, std::size_t offset,
    std::size_t count) const {
  const std::size_t n = params_.chips();
  dsp::Samples scratch(n);
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t start = offset + k * n;
    if (start + n > conditioned.size()) break;
    out.push_back(static_cast<std::uint32_t>(
        dechirp_peak(conditioned.subspan(start, n), base_up_, scratch)
            .first));
  }
  return out;
}

std::optional<Demodulator::SyncInfo> Demodulator::synchronize(
    std::span<const dsp::Complex> conditioned) const {
  const std::size_t n = params_.chips();
  const auto nu = static_cast<std::uint32_t>(n);
  if (conditioned.size() < n * 8) return std::nullopt;

  dsp::Samples scratch(n);

  // Step 1: coarse scan — consecutive windows with a consistent peak bin
  // mark the preamble; the consensus bin IS the timing offset tau. Each
  // window is dechirped only when the scan reaches it, so the scan stops
  // paying at the first run.
  const std::size_t window_count = conditioned.size() / n;
  // We need most of the preamble still ahead after the run is found.
  const int needed_run = std::max(4, params_.preamble_symbols - 4);

  std::size_t run_start = 0;
  std::uint32_t run_bin = 0;
  int run_len = 0;
  std::optional<std::size_t> found;
  for (std::size_t k = 0; k < window_count; ++k) {
    auto [peak, db] =
        dechirp_peak(conditioned.subspan(k * n, n), base_up_, scratch);
    const auto bin = static_cast<std::uint32_t>(peak);
    bool extend = run_len > 0 && bin_distance(bin, run_bin, nu) <= 1 &&
                  db > kDetectThresholdDb;
    if (extend) {
      ++run_len;
    } else {
      run_start = k;
      run_bin = bin;
      run_len = db > kDetectThresholdDb ? 1 : 0;
    }
    if (run_len >= needed_run) {
      found = run_start;
      break;
    }
  }
  if (!found) return std::nullopt;

  std::uint32_t tau = run_bin;
  std::size_t aligned = *found * n + ((nu - tau) % nu);

  // Step 2: walk aligned symbols — preamble (bin 0), sync word, SFD.
  auto window_at = [&](std::size_t idx) {
    return conditioned.subspan(aligned + idx * n, n);
  };
  auto windows_remaining = [&](std::size_t idx) {
    return aligned + (idx + 1) * n <= conditioned.size();
  };

  std::size_t idx = 0;
  double best_ratio = 0.0;
  // Skip remaining preamble symbols (peak near 0). The window that stops
  // the walk is the first sync-word symbol; its bin is checked below.
  std::uint32_t bin = 0;
  for (;; ++idx) {
    if (!windows_remaining(idx)) return std::nullopt;
    auto [peak, db] = dechirp_peak(window_at(idx), base_up_, scratch);
    bin = static_cast<std::uint32_t>(peak);
    if (bin_distance(bin, 0, nu) > 2) break;
    best_ratio = std::max(best_ratio, db);
    if (idx + 1 > static_cast<std::size_t>(params_.preamble_symbols) + 4)
      return std::nullopt;  // never saw the sync word
  }

  // Sync word: two symbols at the expected shifts (tolerance +-2 bins).
  const std::uint32_t mask = nu - 1;
  if (bin_distance(bin, kSyncSymbol1 & mask, nu) > 2) return std::nullopt;
  ++idx;
  if (!windows_remaining(idx)) return std::nullopt;
  bin = static_cast<std::uint32_t>(
      dechirp_peak(window_at(idx), base_up_, scratch).first);
  if (bin_distance(bin, kSyncSymbol2 & mask, nu) > 2) return std::nullopt;
  ++idx;

  // SFD: downchirps. One up/down dechirp pair verifies the direction and
  // estimates CFO from the downchirp peak (bin_down ~ 2*cfo after timing
  // alignment).
  if (!windows_remaining(idx)) return std::nullopt;
  const double up_db = dechirp_peak(window_at(idx), base_up_, scratch).second;
  auto [down_bin, down_db] =
      dechirp_peak(window_at(idx), base_down_, scratch);
  if (direction_of(up_db, down_db) != ChirpDirection::kDown)
    return std::nullopt;
  auto signed_bin = static_cast<double>(down_bin);
  if (signed_bin > static_cast<double>(n) / 2.0)
    signed_bin -= static_cast<double>(n);

  SyncInfo info;
  info.timing_offset = tau;
  info.cfo_bins = signed_bin / 2.0;
  info.peak_snr_db = best_ratio;
  // Payload starts 2.25 symbols after the SFD begins.
  info.payload_start = aligned + idx * n + (n * 9) / 4;
  return info;
}

std::optional<DemodResult> Demodulator::receive(
    std::span<const dsp::Complex> rf,
    std::optional<std::size_t> implicit_length) const {
  // At critical sampling condition() is a plain copy; read `rf` in place.
  dsp::Samples filtered;
  std::span<const dsp::Complex> cond = rf;
  if (oversampling_ != 1) {
    filtered = condition(rf);
    cond = filtered;
  }
  auto sync = synchronize(cond);
  if (!sync) return std::nullopt;

  const std::size_t n = params_.chips();
  std::size_t available =
      cond.size() > sync->payload_start
          ? (cond.size() - sync->payload_start) / n
          : 0;
  if (available == 0) return std::nullopt;

  auto symbols = demodulate_aligned(cond, sync->payload_start, available);
  PacketCodec codec{params_};
  DemodResult result;
  result.packet = codec.decode(symbols, implicit_length);
  result.payload_start = sync->payload_start;
  result.preamble_peak_snr_db = sync->peak_snr_db;
  result.timing_offset = sync->timing_offset;
  return result;
}

}  // namespace tinysdr::lora
