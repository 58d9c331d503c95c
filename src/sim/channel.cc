#include "src/sim/channel.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"

namespace dynapipe::sim {

Channel::Channel(int32_t dev_a, int32_t dev_b) : dev_a_(dev_a), dev_b_(dev_b) {
  DYNAPIPE_CHECK(dev_a < dev_b);
}

std::deque<std::vector<CommOp>>& Channel::SideFor(int32_t device) {
  if (device == dev_a_) {
    return side_a_;
  }
  DYNAPIPE_CHECK_MSG(device == dev_b_, "device not on this channel");
  return side_b_;
}

void Channel::PostGroup(int32_t device, std::vector<CommOp> group) {
  DYNAPIPE_CHECK(!group.empty());
  SideFor(device).push_back(std::move(group));
}

bool Channel::TryMatch(
    const std::function<double(int64_t)>& duration_ms,
    const std::function<void(int64_t, int64_t, double, double, int64_t)>& on_transfer) {
  while (!side_a_.empty() && !side_b_.empty()) {
    std::vector<CommOp>& ga = side_a_.front();
    std::vector<CommOp>& gb = side_b_.front();
    bool matched_any = false;
    for (auto& a : ga) {
      if (a.matched) {
        continue;
      }
      for (auto& b : gb) {
        if (b.matched || a.is_send == b.is_send || a.tag != b.tag) {
          continue;
        }
        if (a.bytes != b.bytes) {
          return false;
        }
        CommOp& send = a.is_send ? a : b;
        CommOp& recv = a.is_send ? b : a;
        const double start =
            std::max({send.post_time_ms, recv.post_time_ms, free_time_ms_});
        const double end = start + duration_ms(send.bytes);
        free_time_ms_ = end;
        a.matched = true;
        b.matched = true;
        on_transfer(send.handle, recv.handle, start, end, send.bytes);
        matched_any = true;
        break;
      }
    }
    auto all_matched = [](const std::vector<CommOp>& g) {
      return std::all_of(g.begin(), g.end(),
                         [](const CommOp& op) { return op.matched; });
    };
    bool popped = false;
    if (all_matched(ga)) {
      side_a_.pop_front();
      popped = true;
    }
    if (all_matched(gb)) {
      side_b_.pop_front();
      popped = true;
    }
    // Stalled: head groups exist but no conjugate pair and nothing retired. Later
    // posts cannot legally match past the heads, so stop (potential deadlock —
    // diagnosed by the simulator if nothing else progresses).
    if (!matched_any && !popped) {
      return true;
    }
  }
  return true;
}

bool Channel::HasPendingOps() const { return !side_a_.empty() || !side_b_.empty(); }

std::string Channel::DescribeHeads() const {
  auto describe = [](const std::deque<std::vector<CommOp>>& side) -> std::string {
    if (side.empty()) {
      return "(empty)";
    }
    std::ostringstream oss;
    oss << "[";
    for (const auto& op : side.front()) {
      oss << (op.is_send ? "send" : "recv") << " tag=" << op.tag
          << (op.matched ? "(matched) " : " ");
    }
    oss << "] (+" << side.size() - 1 << " groups queued)";
    return oss.str();
  };
  std::ostringstream oss;
  oss << "channel[" << dev_a_ << "<->" << dev_b_ << "] head(dev" << dev_a_
      << ")=" << describe(side_a_) << " head(dev" << dev_b_
      << ")=" << describe(side_b_);
  return oss.str();
}

}  // namespace dynapipe::sim
