#include "cc/serial.hpp"

namespace samoa {

class SerialComputationCC : public ComputationCC {
 public:
  SerialComputationCC(VersionGate& turn, CCStats& stats, std::uint64_t pv)
      : turn_(turn), stats_(stats), pv_(pv) {}

  void on_start() override { turn_.wait_exact(pv_ - 1, stats_, "serial"); }

  void on_issue(HandlerId, const Handler&) override {}
  void before_execute(const Handler&) override {}
  void after_execute(const Handler&) override {}

  void on_complete() override { turn_.set_lv(pv_); }

 private:
  VersionGate& turn_;
  CCStats& stats_;
  std::uint64_t pv_;
};

std::unique_ptr<ComputationCC> SerialController::admit(ComputationId k, const Isolation&) {
  stats_.admissions.add();
  return std::make_unique<SerialComputationCC>(turn_, stats_, turn_.admit(1, k.value()));
}

}  // namespace samoa
