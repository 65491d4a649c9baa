// RelCast — reliable broadcast (paper Section 3).
//
//   handler bcast (m): for all site in view: trigger SendOut (m, site);
//   handler recv (m): if (new message m) { bcast m;
//                                          asyncTriggerAll DeliverOut m; }
//   handler viewChange (new_view): view = new_view;
//
// The recv-side rebroadcast guarantees all-or-nothing delivery within the
// view even if the original sender crashes mid-broadcast. It covers plain
// and causal broadcasts only. An atomic payload is delivered up to ABcast
// but not relayed: consensus values are the payload batches, so ACCEPT and
// DECIDE bring every ordered payload to every site, and a payload whose
// origin crashed mid-broadcast is ordered by any survivor holding it.
#pragma once

#include <unordered_set>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class RelCast : public GcMicroprotocol {
 public:
  RelCast(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* bcast_handler() const { return bcast_; }
  const Handler* recv_handler() const { return recv_; }
  const Handler* view_change_handler() const { return view_change_; }

  std::uint64_t broadcasts() const { return broadcasts_.value(); }
  View view_snapshot();

 private:
  SiteId self_;
  View view_;
  std::unordered_set<MsgId> seen_;
  Counter broadcasts_;
  mutable std::mutex snap_mu_;

  const Handler* bcast_ = nullptr;
  const Handler* recv_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
