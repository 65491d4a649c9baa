#include "verify/vs_checker.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

namespace samoa::verify {

namespace {

using OrderKey = std::pair<std::uint64_t, std::uint64_t>;  // (ordinal, id)

OrderKey key_of(const DeliveryRecord& r) { return {r.ordinal, r.id}; }

std::string name_of(const IncarnationTrace& t) {
  std::ostringstream os;
  os << "site " << t.site.value() << "#" << t.incarnation;
  return os.str();
}

}  // namespace

std::string lost_delivery(const IncarnationTrace& t, const std::vector<DeliveryRecord>& reference) {
  if (reference.empty()) return {};
  std::set<std::uint64_t> joined;  // the views t installed as a member
  for (const gc::View& v : t.views) {
    if (v.contains(t.site)) joined.insert(v.id());
  }
  const DeliveryRecord& last = reference.back();
  if ((joined.empty() || *joined.begin() <= last.view_id) &&
      (t.deliveries.empty() || key_of(t.deliveries.back()) != key_of(last))) {
    std::ostringstream os;
    os << "lost delivery: " << name_of(t) << " is alive but stopped at ordinal "
       << (t.deliveries.empty() ? 0 : t.deliveries.back().ordinal)
       << " while the reference order ends at ordinal " << last.ordinal;
    return os.str();
  }
  std::set<OrderKey> delivered;
  for (const auto& r : t.deliveries) delivered.insert(key_of(r));
  for (const auto& r : reference) {
    if (joined.contains(r.view_id) && !delivered.contains(key_of(r))) {
      std::ostringstream os;
      os << "lost delivery: " << name_of(t) << " installed view " << r.view_id
         << " as a member but did not deliver message " << r.id << " (ordinal " << r.ordinal
         << ") delivered in it";
      return os.str();
    }
  }
  return {};
}

std::string VsReport::describe() const {
  std::ostringstream os;
  os << "virtual synchrony: " << (ok() ? "OK" : "VIOLATED") << " (" << incarnations_checked
     << " incarnations, reference order length " << reference_length << ")";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

VsReport check_virtual_synchrony(const std::vector<IncarnationTrace>& traces) {
  VsReport report;
  report.incarnations_checked = traces.size();
  auto violate = [&report](const std::string& what) { report.violations.push_back(what); };

  // --- 1+2a. Global agreement: each message id has one view and one
  // ordinal everywhere; each ordinal position holds consistent content.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, const IncarnationTrace*>> view_of;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, const IncarnationTrace*>> ord_of;
  std::map<OrderKey, const DeliveryRecord*> reference;  // reconstructed total order
  for (const auto& t : traces) {
    for (const auto& r : t.deliveries) {
      auto [vit, vnew] = view_of.try_emplace(r.id, r.view_id, &t);
      if (!vnew && vit->second.first != r.view_id) {
        std::ostringstream os;
        os << "same-view agreement: message " << r.id << " delivered in view " << r.view_id
           << " at " << name_of(t) << " but in view " << vit->second.first << " at "
           << name_of(*vit->second.second);
        violate(os.str());
      }
      auto [oit, onew] = ord_of.try_emplace(r.id, r.ordinal, &t);
      if (!onew && oit->second.first != r.ordinal) {
        std::ostringstream os;
        os << "total order: message " << r.id << " at ordinal " << r.ordinal << " at "
           << name_of(t) << " but at ordinal " << oit->second.first << " at "
           << name_of(*oit->second.second);
        violate(os.str());
      }
      reference.emplace(key_of(r), &r);
    }
  }
  report.reference_length = reference.size();

  // --- 2b+3. Per incarnation: strictly ordered trace forming a contiguous
  // window of the reference order.
  for (const auto& t : traces) {
    for (std::size_t i = 1; i < t.deliveries.size(); ++i) {
      if (!(key_of(t.deliveries[i - 1]) < key_of(t.deliveries[i]))) {
        std::ostringstream os;
        os << "local order: " << name_of(t) << " delivered message " << t.deliveries[i].id
           << " (ordinal " << t.deliveries[i].ordinal << ") after message "
           << t.deliveries[i - 1].id << " (ordinal " << t.deliveries[i - 1].ordinal << ")";
        violate(os.str());
      }
    }
    if (t.deliveries.empty()) continue;
    auto lo = reference.find(key_of(t.deliveries.front()));
    std::size_t i = 0;
    for (; lo != reference.end() && i < t.deliveries.size(); ++lo, ++i) {
      if (lo->first != key_of(t.deliveries[i])) {
        std::ostringstream os;
        os << "window consistency: " << name_of(t) << " skipped message " << lo->first.second
           << " (ordinal " << lo->first.first << ") delivered elsewhere inside its window";
        violate(os.str());
        break;
      }
    }
  }

  // --- 4. Per site: incarnation windows strictly advance (a rejoined
  // site continues the order; it never re-delivers its past).
  std::map<SiteId, std::vector<const IncarnationTrace*>> by_site;
  for (const auto& t : traces) by_site[t.site].push_back(&t);
  for (auto& [site, incs] : by_site) {
    (void)site;
    std::sort(incs.begin(), incs.end(),
              [](const auto* a, const auto* b) { return a->incarnation < b->incarnation; });
    const IncarnationTrace* prev = nullptr;
    for (const auto* t : incs) {
      if (prev != nullptr && !prev->deliveries.empty() && !t->deliveries.empty() &&
          !(key_of(prev->deliveries.back()) < key_of(t->deliveries.front()))) {
        std::ostringstream os;
        os << "duplicate delivery: " << name_of(*t) << " re-entered the order at ordinal "
           << t->deliveries.front().ordinal << " although " << name_of(*prev)
           << " already reached ordinal " << prev->deliveries.back().ordinal;
        violate(os.str());
      }
      if (!t->deliveries.empty()) prev = t;
    }
  }

  // --- 5. No lost stable delivery, for every incarnation alive at the
  // end of the run.
  std::vector<DeliveryRecord> order;
  for (const auto& [key, r] : reference) order.push_back(*r);
  for (const auto& t : traces) {
    if (t.crashed) continue;
    if (std::string lost = lost_delivery(t, order); !lost.empty()) violate(lost);
  }

  // --- 6. View agreement: one member set per view id, strictly
  // increasing installs per incarnation.
  std::unordered_map<std::uint64_t, std::pair<const gc::View*, const IncarnationTrace*>> views;
  for (const auto& t : traces) {
    for (std::size_t i = 0; i < t.views.size(); ++i) {
      const gc::View& v = t.views[i];
      if (i > 0 && v.id() <= t.views[i - 1].id()) {
        std::ostringstream os;
        os << "view order: " << name_of(t) << " installed view " << v.id() << " after view "
           << t.views[i - 1].id();
        violate(os.str());
      }
      if (v.id() == 0) continue;  // the empty pre-start view
      auto [it, fresh] = views.try_emplace(v.id(), &v, &t);
      if (!fresh && !(*it->second.first == v)) {
        std::ostringstream os;
        os << "view agreement: view " << v.id() << " has different member sets at "
           << name_of(t) << " and " << name_of(*it->second.second);
        violate(os.str());
      }
    }
  }

  return report;
}

}  // namespace samoa::verify
