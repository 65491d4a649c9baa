#include "explore/trace.hpp"

#include <sstream>
#include <stdexcept>

namespace samoa::explore {

std::string ScheduleTrace::encode() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    if (i) os << '.';
    os << decisions_[i].kind << decisions_[i].chosen << '/' << decisions_[i].ncand;
  }
  return os.str();
}

ScheduleTrace ScheduleTrace::decode(const std::string& text) {
  ScheduleTrace trace;
  if (text.empty()) return trace;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('.', pos);
    const std::string tok = text.substr(pos, end == std::string::npos ? end : end - pos);
    if (tok.size() < 4 || (tok[0] != 's' && tok[0] != 'n')) {
      throw std::invalid_argument("ScheduleTrace: bad token '" + tok + "'");
    }
    const std::size_t slash = tok.find('/');
    if (slash == std::string::npos || slash == 1 || slash + 1 >= tok.size()) {
      throw std::invalid_argument("ScheduleTrace: bad token '" + tok + "'");
    }
    Decision d;
    d.kind = tok[0];
    try {
      d.chosen = static_cast<std::uint32_t>(std::stoul(tok.substr(1, slash - 1)));
      d.ncand = static_cast<std::uint32_t>(std::stoul(tok.substr(slash + 1)));
    } catch (const std::exception&) {
      throw std::invalid_argument("ScheduleTrace: bad token '" + tok + "'");
    }
    if (d.ncand < 2 || d.chosen >= d.ncand) {
      throw std::invalid_argument("ScheduleTrace: out-of-range token '" + tok + "'");
    }
    trace.decisions_.push_back(d);
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return trace;
}

}  // namespace samoa::explore
