#include "oracles/repartition_policy.h"

#include <string>
#include <utility>

namespace actop {

namespace {

class PairwisePolicy : public RepartitionPolicy {
 public:
  PairwisePolicy() : name_("pairwise") {}
  const std::string& name() const override { return name_; }
  int64_t RunSweep(RepartitionArena* arena) override { return arena->RunPairwiseSweep(); }

 private:
  std::string name_;
};

class KWayPolicy : public RepartitionPolicy {
 public:
  explicit KWayPolicy(int fanout)
      : fanout_(fanout), name_("kway" + std::to_string(fanout)) {}
  const std::string& name() const override { return name_; }
  int64_t RunSweep(RepartitionArena* arena) override { return arena->RunKWaySweep(fanout_); }

 private:
  int fanout_;
  std::string name_;
};

class GreedyUnilateralPolicy : public RepartitionPolicy {
 public:
  GreedyUnilateralPolicy() : name_("unilateral") {}
  const std::string& name() const override { return name_; }
  int64_t RunSweep(RepartitionArena* arena) override {
    return arena->RunGreedyUnilateralSweep();
  }

 private:
  std::string name_;
};

class ObrThresholdPolicy : public RepartitionPolicy {
 public:
  explicit ObrThresholdPolicy(double alpha) : alpha_(alpha), name_("obr-lazy") {}
  const std::string& name() const override { return name_; }
  int64_t RunSweep(RepartitionArena* arena) override {
    return arena->RunObrThresholdSweep(alpha_);
  }

 private:
  double alpha_;
  std::string name_;
};

class StreamingRefinePolicy : public RepartitionPolicy {
 public:
  explicit StreamingRefinePolicy(double load_penalty)
      : load_penalty_(load_penalty), name_("sdp-stream") {}
  const std::string& name() const override { return name_; }
  int64_t RunSweep(RepartitionArena* arena) override {
    return arena->RunStreamingRefineSweep(load_penalty_);
  }

 private:
  double load_penalty_;
  std::string name_;
};

}  // namespace

std::unique_ptr<RepartitionPolicy> MakePairwisePolicy() {
  return std::make_unique<PairwisePolicy>();
}
std::unique_ptr<RepartitionPolicy> MakeKWayPolicy(int fanout) {
  return std::make_unique<KWayPolicy>(fanout);
}
std::unique_ptr<RepartitionPolicy> MakeGreedyUnilateralPolicy() {
  return std::make_unique<GreedyUnilateralPolicy>();
}
std::unique_ptr<RepartitionPolicy> MakeObrThresholdPolicy(double alpha) {
  return std::make_unique<ObrThresholdPolicy>(alpha);
}
std::unique_ptr<RepartitionPolicy> MakeStreamingRefinePolicy(double load_penalty) {
  return std::make_unique<StreamingRefinePolicy>(load_penalty);
}

std::vector<std::unique_ptr<RepartitionPolicy>> MakeArenaPolicies(const PolicyParams& params) {
  std::vector<std::unique_ptr<RepartitionPolicy>> policies;
  policies.push_back(MakePairwisePolicy());
  policies.push_back(MakeKWayPolicy(params.kway_fanout));
  policies.push_back(MakeGreedyUnilateralPolicy());
  policies.push_back(MakeObrThresholdPolicy(params.obr_alpha));
  policies.push_back(MakeStreamingRefinePolicy(params.sdp_load_penalty));
  return policies;
}

}  // namespace actop
