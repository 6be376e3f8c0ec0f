// ota_fleet: Fig. 14's over-the-air programming of a campus fleet. One
// batch is testbed::run_campaign for the LoRa FPGA image and then for the
// MCU image over a Deployment::campus fleet, sharded over the worker pool.
// No waveform DSP runs: this is the control workload that every DSP, PHY
// or flow optimisation should leave unchanged. Its time goes to per-node
// LZO compress/decompress, the flash model and the transfer engine.
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/seed.hpp"
#include "fpga/bitstream.hpp"
#include "ota/lzo.hpp"
#include "ota/protocol.hpp"
#include "spans.hpp"
#include "testbed/campaign.hpp"

namespace perfbench {

namespace {

namespace ota = tinysdr::ota;
namespace tb = tinysdr::testbed;

constexpr std::size_t kNodes = 32;
constexpr std::uint64_t kDeploymentSeed = 2024;  ///< Fig. 14's campus
/// Fleet nodes whose inputs the traced run feeds to direct OTA calls.
constexpr std::size_t kSampleNodes = 4;

struct Image {
  tinysdr::fpga::FirmwareImage image;
  ota::UpdateTarget target;
  std::uint64_t campaign_seed = 0;
  std::vector<std::string> reference;  ///< encode_report per node
};

class OtaFleet final : public Workload {
 public:
  OtaFleet(const Options& opt, bool /*decorated: no PHY runs here*/)
      : policy_(tinysdr::exec::ExecPolicy::with_threads(opt.threads)),
        campaign_span_(SpanLog::intern("testbed.run_campaign")),
        compress_span_(SpanLog::intern("ota.compress_blocks")),
        decompress_span_(SpanLog::intern("ota.decompress_blocks")),
        transfer_span_(SpanLog::intern("ota.transfer")),
        planner_span_(SpanLog::intern("ota.planner_run")) {
    // Inputs: the images and each campaign's link seed. The campus layout
    // is fixed, so a run's cost depends on the seed only through the links'
    // loss draws.
    tinysdr::Rng gen{opt.seed, 0x07a};
    image_seed_ = gen.next_u32();
    images_[0].target = ota::UpdateTarget::kFpga;
    images_[1].target = ota::UpdateTarget::kMcu;
    for (Image& img : images_) img.campaign_seed = gen.next_u32();
  }

  const char* item_name() const override { return "nodes"; }

  void setup(Tally& tally) override {
    tinysdr::Rng deploy_rng{kDeploymentSeed};
    deployment_ = std::make_unique<tb::Deployment>(
        tb::Deployment::campus(deploy_rng, tinysdr::Dbm{14.0}, kNodes));
    tinysdr::Rng img_rng{image_seed_};
    images_[0].image = tinysdr::fpga::generate_bitstream(
        tinysdr::fpga::lora_rx_design(8), tinysdr::fpga::DeviceSpec{}, img_rng);
    images_[1].image =
        tinysdr::fpga::generate_mcu_program("mcu_fw", 78 * 1024, img_rng);
    for (Image& img : images_) {
      std::vector<std::string> reports = campaign(img, policy_, tally);
      tally.check(img.reference.empty() || reports == img.reference,
                  "ota_fleet: warm-up campaign repeats identically");
      img.reference = std::move(reports);
    }
  }

  std::size_t run_batch(Tally& tally) override {
    std::size_t nodes = 0;
    retransmissions_ = 0;
    for (Image& img : images_) {
      tally.check(campaign(img, policy_, tally) == img.reference,
                  "ota_fleet: campaign equals the reference");
      nodes += img.reference.size();
    }
    return nodes;
  }

  void check(Tally& tally) override {
    // Per-node reports are identical at 1 thread and at the run's threads.
    for (Image& img : images_)
      tally.check(campaign(img, tinysdr::exec::ExecPolicy::serial(), tally) ==
                      img.reference,
                  "ota_fleet: serial campaign equals the sharded campaign");
  }

  std::string digest() const override {
    Digest d;
    for (const Image& img : images_)
      for (const auto& r : img.reference) d.bytes(r);
    return d.hex();
  }

  void traced_batch_values(LayerValues& sum) override {
    // A simulated count: it must repeat exactly, batch after batch.
    sum["ota.retransmissions"] = static_cast<double>(retransmissions_);
  }

  void traced_extras(LayerValues&) override {
    // Direct calls on a sample of fleet nodes' inputs: the same seeds,
    // links and images run_campaign gives those nodes.
    const auto& nodes = deployment_->nodes();
    for (Image& img : images_) {
      tinysdr::Rng rng{img.campaign_seed};
      const std::uint64_t pass_base = tinysdr::exec::draw_base_seed(rng);
      for (std::size_t s = 0; s < kSampleNodes; ++s) {
        const std::size_t i = s * nodes.size() / kSampleNodes;
        const tb::Node& node = nodes[i];
        const std::uint64_t seed = tb::node_link_seed(pass_base, node.id);

        std::vector<ota::CompressedBlock> blocks;
        {
          ScopedSpan span{compress_span_};
          blocks = ota::compress_blocks(img.image.data);
        }
        {
          ScopedSpan span{decompress_span_};
          (void)ota::decompress_blocks(blocks);
        }
        {
          ota::OtaLink link{ota::ota_link_params(), node.rssi, seed};
          ota::FlashModel flash;
          tinysdr::mcu::Msp432 mcu = tinysdr::mcu::baseline_firmware();
          ota::NodeAgent agent{node.id, flash, nullptr, &mcu};
          const std::vector<std::uint8_t> stream = transfer_stream(blocks);
          ScopedSpan span{transfer_span_};
          (void)ota::AccessPoint{}.transfer(stream, node.id, link, {}, &agent);
        }
        {
          ota::OtaLink link{ota::ota_link_params(), node.rssi, seed};
          ota::FlashModel flash;
          tinysdr::mcu::Msp432 mcu = tinysdr::mcu::baseline_firmware();
          ScopedSpan span{planner_span_};
          (void)ota::UpdatePlanner{}.run(img.image, img.target, node.id, link,
                                         flash, mcu);
        }
      }
    }
  }

 private:
  /// The byte stream UpdatePlanner sends: per block a 10-byte header
  /// (original size, compressed size, CRC16; little-endian) then the data.
  static std::vector<std::uint8_t> transfer_stream(
      const std::vector<ota::CompressedBlock>& blocks) {
    std::vector<std::uint8_t> stream;
    auto push32 = [&](std::uint32_t v) {
      for (int b = 0; b < 4; ++b)
        stream.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    };
    for (const auto& block : blocks) {
      push32(block.original_size);
      push32(static_cast<std::uint32_t>(block.data.size()));
      stream.push_back(static_cast<std::uint8_t>(block.crc16 & 0xFF));
      stream.push_back(static_cast<std::uint8_t>(block.crc16 >> 8));
      stream.insert(stream.end(), block.data.begin(), block.data.end());
    }
    return stream;
  }

  std::vector<std::string> campaign(const Image& img,
                                    const tinysdr::exec::ExecPolicy& policy,
                                    Tally& tally) {
    tinysdr::Rng rng{img.campaign_seed};
    tb::CampaignResult result;
    {
      ScopedSpan span{campaign_span_};
      result = tb::run_campaign(*deployment_, img.image, img.target, rng,
                                policy);
    }
    tally.check(result.exec_status.complete() &&
                    result.per_node.size() == deployment_->nodes().size(),
                "ota_fleet: campaign completed every node");
    std::vector<std::string> reports;
    for (const auto& r : result.per_node) {
      reports.push_back(encode_report(r));
      retransmissions_ += r.transfer.retransmissions;
    }
    return reports;
  }

  tinysdr::exec::ExecPolicy policy_;
  std::uint32_t campaign_span_, compress_span_, decompress_span_,
      transfer_span_, planner_span_;
  std::uint64_t image_seed_ = 0;
  std::unique_ptr<tb::Deployment> deployment_;
  Image images_[2];
  std::size_t retransmissions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ota_fleet(const Options& opt, bool decorated) {
  return std::make_unique<OtaFleet>(opt, decorated);
}

}  // namespace perfbench
