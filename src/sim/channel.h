// Ordered point-to-point channel with NCCL-like semantics.
//
// NCCL requires sends and receives between a pair of ranks to be issued in matching
// order, and only one transfer per pair is in flight at a time (§2.3). Channel
// models one unordered device pair: each side posts *groups* of communication ops
// (a group is a fused/batched issue, like ncclGroupStart/End or PyTorch
// batch_isend_irecv; most groups contain a single op). Transfers happen only
// between ops of the two *head* groups; a head group is retired when all its ops
// have matched. Out-of-order posts therefore stall the channel head — exactly the
// mechanism that deadlocks naively-scheduled dynamic pipelines, while fused
// crossing pairs keep uniform 1F1B deadlock-free (Fig. 8a).
#ifndef DYNAPIPE_SRC_SIM_CHANNEL_H_
#define DYNAPIPE_SRC_SIM_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace dynapipe::sim {

// One half of a transfer. Tag encodes (microbatch, act-or-grad) so conjugate ops
// pair up; direction comes from is_send.
struct CommOp {
  bool is_send = false;
  uint64_t tag = 0;
  int64_t bytes = 0;
  double post_time_ms = 0.0;
  // Simulator handle for the op's completion record.
  int64_t handle = -1;
  bool matched = false;
};

class Channel {
 public:
  // dev_a < dev_b identify the pair.
  Channel(int32_t dev_a, int32_t dev_b);

  // Post a fused group of ops from `device` (single-op groups for unfused issues).
  void PostGroup(int32_t device, std::vector<CommOp> group);

  // Attempt head-group matching. For every transfer scheduled, invokes
  // on_transfer(send_handle, recv_handle, start_ms, end_ms, bytes); duration_ms
  // supplies the latency+bandwidth model. Returns false, matching nothing
  // further, at a conjugate pair whose byte counts disagree: the plan is
  // malformed, and ClusterSim refuses it.
  bool TryMatch(const std::function<double(int64_t)>& duration_ms,
                const std::function<void(int64_t, int64_t, double, double, int64_t)>&
                    on_transfer);

  bool HasPendingOps() const;

  // Human-readable head-of-queue state for deadlock diagnostics.
  std::string DescribeHeads() const;

 private:
  std::deque<std::vector<CommOp>>& SideFor(int32_t device);

  int32_t dev_a_;
  int32_t dev_b_;
  std::deque<std::vector<CommOp>> side_a_;
  std::deque<std::vector<CommOp>> side_b_;
  double free_time_ms_ = 0.0;  // one transfer at a time per pair
};

}  // namespace dynapipe::sim

#endif  // DYNAPIPE_SRC_SIM_CHANNEL_H_
