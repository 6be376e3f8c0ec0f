#include "phy/registry.hpp"

#include <stdexcept>

#include "channel/noise.hpp"
#include "nbiot/uplink.hpp"
#include "phy/ble_phy.hpp"
#include "phy/lora_phy.hpp"
#include "phy/modem_phy.hpp"
#include "sigfox/unb.hpp"
#include "zigbee/oqpsk.hpp"

namespace tinysdr::phy {

namespace {

/// The PHR length field covers PSDU + FCS, capping the payload at 125 B.
constexpr std::size_t kZigbeeMaxPayload = zigbee::kMaxPsdu - 2;

using ZigbeeTx =
    ModemTx<zigbee::OqpskModem, Protocol::kZigbee, kZigbeeMaxPayload>;
using ZigbeeRx = ModemRx<zigbee::OqpskModem, Protocol::kZigbee>;
using SigfoxTx =
    ModemTx<sigfox::UnbModem, Protocol::kSigfox, sigfox::kMaxPayload>;
using SigfoxRx = ModemRx<sigfox::UnbModem, Protocol::kSigfox>;
using NbiotTx =
    ModemTx<nbiot::SingleToneModem, Protocol::kNbiot, nbiot::kMaxPayload>;
using NbiotRx = ModemRx<nbiot::SingleToneModem, Protocol::kNbiot>;

}  // namespace

void Registry::add(RegisteredPhy entry) {
  if (find(entry.id) != nullptr)
    throw std::invalid_argument("Registry: duplicate protocol id: " +
                                entry.name);
  entries_.push_back(std::move(entry));
}

const RegisteredPhy* Registry::find(Protocol id) const {
  for (const auto& e : entries_)
    if (e.id == id) return &e;
  return nullptr;
}

const RegisteredPhy* Registry::find_by_name(std::string_view name) const {
  for (const auto& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

const RegisteredPhy& Registry::at(Protocol id) const {
  const RegisteredPhy* e = find(id);
  if (e == nullptr)
    throw std::out_of_range("Registry: protocol not registered: " +
                            std::string(protocol_name(id)));
  return *e;
}

const Registry& Registry::builtin() {
  static const Registry registry = [] {
    Registry r;
    r.add({Protocol::kLora, std::string(protocol_name(Protocol::kLora)),
           kLoraSystemNf, lora::kMaxPayload, 300, 256, 1, 0,
           [] { return std::make_unique<LoraPacketTx>(); },
           [] { return std::make_unique<LoraPacketRx>(); }});
    r.add({Protocol::kBle, std::string(protocol_name(Protocol::kBle)),
           kBleSystemNf, 31, 0, 1, 1, 0,
           [] { return std::make_unique<BleBeaconTx>(); },
           [] { return std::make_unique<BleBeaconRx>(); }});
    // Zigbee, Sigfox and NB-IoT use the default receiver NF: no
    // implementation margin has been calibrated for them.
    r.add({Protocol::kZigbee, std::string(protocol_name(Protocol::kZigbee)),
           // cfo_window 512 with cfo_lag 64: the fixed preamble is 8
           // identical zero symbols of 64 samples, so lag-one-symbol
           // products inside the window rotate by the CFO alone
           // (Schmidl-&-Cox) — O-QPSK's chip-dependent rotation makes any
           // whole-frame or lag-1 estimate payload-biased, and the
           // frame-coherent demod needs ~1e-4 cycles/sample precision.
           channel::kDefaultNoiseFigureDb, kZigbeeMaxPayload, 0, 64, 1, 512,
           [] { return std::make_unique<ZigbeeTx>(); },
           [] { return std::make_unique<ZigbeeRx>(); }});
    r.add({Protocol::kSigfox, std::string(protocol_name(Protocol::kSigfox)),
           channel::kDefaultNoiseFigureDb, sigfox::kMaxPayload, 0, 1, 1, 0,
           [] { return std::make_unique<SigfoxTx>(); },
           [] { return std::make_unique<SigfoxRx>(); }});
    r.add({Protocol::kNbiot, std::string(protocol_name(Protocol::kNbiot)),
           // cfo_power 2 strips pi/2-BPSK data flips (they would bias a
           // first-order estimate); cfo_lag 16 = two symbols, where the
           // squared signal's pi-per-symbol ramp is exactly 2*pi == 0, so
           // the bias vanishes and precision scales by the lag.
           channel::kDefaultNoiseFigureDb, nbiot::kMaxPayload, 0, 16, 2, 0,
           [] { return std::make_unique<NbiotTx>(); },
           [] { return std::make_unique<NbiotRx>(); }});
    return r;
  }();
  return registry;
}

}  // namespace tinysdr::phy
