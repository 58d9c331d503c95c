#include "src/sim/cluster_sim.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "src/common/check.h"
#include "src/sim/channel.h"
#include "src/sim/memory_tracker.h"
#include "src/sim/trace.h"

namespace dynapipe::sim {
namespace {

// Tag shared by a conjugate send/recv pair on a channel: the micro-batch index and
// whether the tensor is an activation (forward) or a gradient (backward).
uint64_t TagFor(const Instruction& instr) {
  const bool is_grad = instr.type == InstrType::kSendGradStart ||
                       instr.type == InstrType::kRecvGradStart ||
                       instr.type == InstrType::kWaitSendGrad ||
                       instr.type == InstrType::kWaitRecvGrad;
  return (static_cast<uint64_t>(instr.microbatch) << 1) | (is_grad ? 1u : 0u);
}

// Key linking a Wait op back to its Start op on the same device.
struct WaitKey {
  InstrType start_type;
  int32_t microbatch;
  int32_t peer;
  auto operator<=>(const WaitKey&) const = default;
};

InstrType StartTypeForWait(InstrType wait) {
  switch (wait) {
    case InstrType::kWaitSendAct:
      return InstrType::kSendActStart;
    case InstrType::kWaitRecvAct:
      return InstrType::kRecvActStart;
    case InstrType::kWaitSendGrad:
      return InstrType::kSendGradStart;
    case InstrType::kWaitRecvGrad:
      return InstrType::kRecvGradStart;
    default:
      DYNAPIPE_CHECK_MSG(false, "not a Wait instruction");
  }
}

// The entry scan's per-micro-batch bits on one device.
enum PassBits : uint8_t {
  kForwardRan = 1,
  kBackwardRan = 2,
  kActWaited = 4,
  kGradWaited = 8,
};

// A Start kind's bit in the entry scan's per-(micro-batch, peer) table.
uint8_t StartBit(InstrType start) {
  return static_cast<uint8_t>(
      1u << (static_cast<int>(start) - static_cast<int>(InstrType::kSendActStart)));
}

// The entry scan: every per-device rule the header lists, in one pass over each
// device's instructions. Returns the first violation, or "" for a plan Run may
// execute. Per-micro-batch state is sized only after every device is shown to
// hold two compute ops per micro-batch, so a hostile count allocates nothing.
std::string FirstViolation(const ExecutionPlan& plan, int32_t num_devices) {
  const int32_t c = plan.num_devices();
  if (c == 0) {
    return "plan has no devices";
  }
  if (c != num_devices) {
    return "plan has " + std::to_string(c) + " devices, the simulator " +
           std::to_string(num_devices);
  }
  const int32_t m = plan.num_microbatches;
  if (m < 0) {
    return "negative micro-batch count " + std::to_string(m);
  }
  for (int32_t j = 0; j < c; ++j) {
    const size_t n = plan.devices[static_cast<size_t>(j)].instructions.size();
    if (n < 2 * static_cast<size_t>(m)) {
      return "device " + std::to_string(j) + ": " + std::to_string(n) +
             " instructions cannot run a forward and a backward for each of " +
             std::to_string(m) + " micro-batches";
    }
  }
  std::vector<uint8_t> passes(static_cast<size_t>(m));
  std::vector<uint8_t> started(static_cast<size_t>(m) * static_cast<size_t>(c));
  for (int32_t j = 0; j < c; ++j) {
    const auto& instrs = plan.devices[static_cast<size_t>(j)].instructions;
    const auto fault = [&](size_t k, const char* what) {
      return "device " + std::to_string(j) + " #" + std::to_string(k) + " " +
             instrs[k].ToString() + ": " + what;
    };
    std::fill(passes.begin(), passes.end(), 0);
    for (size_t k = 0; k < instrs.size(); ++k) {
      const Instruction& in = instrs[k];
      if (in.microbatch < 0 || in.microbatch >= m) {
        return fault(k, "micro-batch out of range");
      }
      if (in.bytes < 0 || in.shape.num_samples < 0 || in.shape.input_len < 0 ||
          in.shape.target_len < 0) {
        return fault(k, "negative shape or byte count");
      }
      uint8_t& pass = passes[static_cast<size_t>(in.microbatch)];
      if (in.type == InstrType::kForwardPass) {
        if ((pass & kForwardRan) != 0) {
          return fault(k, "second forward");
        }
        if (j > 0 && (pass & kActWaited) == 0) {
          return fault(k, "forward before its WaitRecvAct");
        }
        pass |= kForwardRan;
        continue;
      }
      if (in.type == InstrType::kBackwardPass) {
        if ((pass & kForwardRan) == 0 || (pass & kBackwardRan) != 0) {
          return fault(k, "backward not after exactly one forward");
        }
        if (j < c - 1 && (pass & kGradWaited) == 0) {
          return fault(k, "backward before its WaitRecvGrad");
        }
        pass |= kBackwardRan;
        continue;
      }
      if (in.peer < 0 || in.peer >= c || in.peer == j) {
        return fault(k, "peer out of range or the device itself");
      }
      uint8_t& kinds = started[static_cast<size_t>(in.microbatch) *
                                   static_cast<size_t>(c) +
                               static_cast<size_t>(in.peer)];
      if (IsCommStart(in.type)) {
        kinds |= StartBit(in.type);
        continue;
      }
      if ((kinds & StartBit(StartTypeForWait(in.type))) == 0) {
        return fault(k, "Wait with no Start");
      }
      if (in.type == InstrType::kWaitRecvAct) {
        pass |= kActWaited;
      } else if (in.type == InstrType::kWaitRecvGrad) {
        pass |= kGradWaited;
      }
    }
    for (int32_t i = 0; i < m; ++i) {
      if ((passes[static_cast<size_t>(i)] & kBackwardRan) == 0) {
        return "device " + std::to_string(j) + ": micro-batch " +
               std::to_string(i) + " never ran its forward and backward";
      }
    }
    for (const Instruction& in : instrs) {
      if (!IsCompute(in.type)) {
        started[static_cast<size_t>(in.microbatch) * static_cast<size_t>(c) +
                static_cast<size_t>(in.peer)] = 0;
      }
    }
  }
  return "";
}

SimResult Refused(std::string reason) {
  SimResult result;
  result.refused = true;
  result.diagnostic = "refused: " + std::move(reason);
  return result;
}

struct Transfer {
  bool complete = false;
  double end_ms = 0.0;
};

struct DeviceState {
  size_t pc = 0;
  double clock_ms = 0.0;
  double busy_ms = 0.0;
  bool done = false;
  int64_t blocked_on = -1;  // transfer handle
  std::map<WaitKey, int64_t> started;  // Start ops posted, for Wait lookup
  std::unique_ptr<MemoryTracker> memory;
};

}  // namespace

double SimResult::MeanIdleFraction() const {
  if (devices.empty() || makespan_ms <= 0.0) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& d : devices) {
    total += 1.0 - d.busy_ms / makespan_ms;
  }
  return total / static_cast<double>(devices.size());
}

ClusterSim::ClusterSim(int32_t num_devices, GroundTruth* ground_truth,
                       ClusterSimOptions options)
    : num_devices_(num_devices), ground_truth_(ground_truth),
      options_(std::move(options)) {
  DYNAPIPE_CHECK(num_devices_ >= 0);
  DYNAPIPE_CHECK(ground_truth_ != nullptr);
  if (!options_.static_memory_mb.empty()) {
    DYNAPIPE_CHECK(options_.static_memory_mb.size() ==
                   static_cast<size_t>(num_devices_));
  }
}

SimResult ClusterSim::Run(const ExecutionPlan& plan) {
  if (std::string violation = FirstViolation(plan, num_devices_);
      !violation.empty()) {
    return Refused(std::move(violation));
  }

  std::vector<DeviceState> devices(static_cast<size_t>(num_devices_));
  for (int32_t d = 0; d < num_devices_; ++d) {
    const double base = options_.static_memory_mb.empty()
                            ? 0.0
                            : options_.static_memory_mb[static_cast<size_t>(d)];
    devices[static_cast<size_t>(d)].memory =
        std::make_unique<MemoryTracker>(base, options_.memory_limit_mb);
  }

  // Channels per unordered device pair, created lazily.
  std::map<std::pair<int32_t, int32_t>, Channel> channels;
  auto channel_for = [&](int32_t a, int32_t b) -> Channel& {
    const auto key = std::minmax(a, b);
    auto it = channels.find(key);
    if (it == channels.end()) {
      it = channels.emplace(key, Channel(key.first, key.second)).first;
    }
    return it->second;
  };

  std::vector<Transfer> transfers;
  // Human-readable transfer labels + trace track, filled at Start posting (only
  // when tracing): indexed by handle, send side wins the naming race.
  std::vector<std::pair<std::string, int32_t>> transfer_labels;
  // Devices blocked on a given transfer handle.
  std::unordered_map<int64_t, std::vector<int32_t>> waiters;
  std::deque<int32_t> worklist;
  std::vector<bool> queued(static_cast<size_t>(num_devices_), false);
  auto enqueue = [&](int32_t d) {
    if (!queued[static_cast<size_t>(d)]) {
      queued[static_cast<size_t>(d)] = true;
      worklist.push_back(d);
    }
  };
  for (int32_t d = 0; d < num_devices_; ++d) {
    enqueue(d);
  }

  double last_transfer_end_ms = 0.0;

  auto on_transfer = [&](int64_t send_handle, int64_t recv_handle, double start,
                         double end, int64_t /*bytes*/) {
    if (options_.trace != nullptr &&
        send_handle < static_cast<int64_t>(transfer_labels.size()) &&
        !transfer_labels[static_cast<size_t>(send_handle)].first.empty()) {
      const auto& [label, track] = transfer_labels[static_cast<size_t>(send_handle)];
      options_.trace->AddSpan(label, track, start, end);
    }
    for (const int64_t h : {send_handle, recv_handle}) {
      transfers[static_cast<size_t>(h)].complete = true;
      transfers[static_cast<size_t>(h)].end_ms = end;
      auto it = waiters.find(h);
      if (it != waiters.end()) {
        for (const int32_t d : it->second) {
          DeviceState& ds = devices[static_cast<size_t>(d)];
          ds.clock_ms = std::max(ds.clock_ms, end);
          ds.blocked_on = -1;
          enqueue(d);
        }
        waiters.erase(it);
      }
    }
    last_transfer_end_ms = std::max(last_transfer_end_ms, end);
  };

  while (!worklist.empty()) {
    const int32_t d = worklist.front();
    worklist.pop_front();
    queued[static_cast<size_t>(d)] = false;
    DeviceState& ds = devices[static_cast<size_t>(d)];
    if (ds.done || ds.blocked_on >= 0) {
      continue;
    }
    const auto& instrs = plan.devices[static_cast<size_t>(d)].instructions;
    while (ds.pc < instrs.size()) {
      const Instruction& instr = instrs[ds.pc];
      if (IsCompute(instr.type)) {
        const double dur = ground_truth_->ComputeMs(d, instr);
        DYNAPIPE_CHECK_MSG(dur >= 0.0, "negative compute duration");
        if (instr.type == InstrType::kForwardPass) {
          ds.memory->Allocate(instr.microbatch,
                              ground_truth_->ActivationMb(d, instr));
        }
        if (options_.trace != nullptr) {
          options_.trace->AddSpan(
              std::string(instr.type == InstrType::kForwardPass ? "F" : "B") +
                  std::to_string(instr.microbatch),
              d, ds.clock_ms, ds.clock_ms + dur);
        }
        ds.clock_ms += dur;
        ds.busy_ms += dur;
        if (instr.type == InstrType::kBackwardPass) {
          ds.memory->Free(instr.microbatch);
        }
        ++ds.pc;
      } else if (IsCommStart(instr.type)) {
        // Gather this Start plus any directly-following Starts sharing a
        // non-negative fusion_group and the same peer into one fused issue.
        std::vector<CommOp> group;
        const int32_t peer = instr.peer;
        size_t pc = ds.pc;
        while (pc < instrs.size()) {
          const Instruction& in = instrs[pc];
          if (!IsCommStart(in.type) || in.peer != peer) {
            break;
          }
          const bool fused_with_first =
              pc == ds.pc || (instr.fusion_group >= 0 &&
                              in.fusion_group == instr.fusion_group);
          if (!fused_with_first) {
            break;
          }
          const int64_t handle = static_cast<int64_t>(transfers.size());
          transfers.push_back(Transfer{});
          CommOp op;
          op.is_send = IsSend(in.type);
          op.tag = TagFor(in);
          op.bytes = in.bytes;
          op.post_time_ms = ds.clock_ms;
          op.handle = handle;
          ds.started[WaitKey{in.type, in.microbatch, in.peer}] = handle;
          if (options_.trace != nullptr) {
            transfer_labels.resize(transfers.size());
            if (op.is_send) {
              const bool is_grad = in.type == InstrType::kSendGradStart;
              const auto ch = std::minmax(d, in.peer);
              transfer_labels[static_cast<size_t>(handle)] = {
                  std::string(is_grad ? "grad" : "act") + " mb" +
                      std::to_string(in.microbatch) + " " + std::to_string(d) +
                      "->" + std::to_string(in.peer),
                  1000 + ch.first * num_devices_ + ch.second};
            }
          }
          group.push_back(op);
          ++pc;
        }
        ds.pc = pc;
        Channel& ch = channel_for(d, peer);
        ch.PostGroup(d, std::move(group));
        const auto pair = std::minmax(d, peer);
        if (!ch.TryMatch(
                [&](int64_t bytes) {
                  return ground_truth_->TransferMs(pair.first, pair.second,
                                                   bytes);
                },
                on_transfer)) {
          return Refused("send/recv size mismatch on " + ch.DescribeHeads());
        }
      } else {  // Wait op
        const WaitKey key{StartTypeForWait(instr.type), instr.microbatch, instr.peer};
        auto it = ds.started.find(key);
        DYNAPIPE_CHECK_MSG(it != ds.started.end(),
                           "entry scan admitted a Wait with no Start");
        const int64_t handle = it->second;
        const Transfer& tr = transfers[static_cast<size_t>(handle)];
        if (tr.complete) {
          ds.clock_ms = std::max(ds.clock_ms, tr.end_ms);
          ++ds.pc;
        } else {
          ds.blocked_on = handle;
          waiters[handle].push_back(d);
          break;
        }
      }
    }
    if (ds.pc >= instrs.size()) {
      ds.done = true;
    }
  }

  const bool all_done = std::all_of(devices.begin(), devices.end(),
                                    [](const DeviceState& ds) { return ds.done; });
  if (all_done) {
    for (const auto& [key, ch] : channels) {
      if (ch.HasPendingOps()) {
        return Refused("unmatched ops once every device finished: " +
                       ch.DescribeHeads());
      }
    }
  }

  SimResult result;
  result.devices.resize(static_cast<size_t>(num_devices_));
  for (int32_t d = 0; d < num_devices_; ++d) {
    const DeviceState& ds = devices[static_cast<size_t>(d)];
    DeviceStats& out = result.devices[static_cast<size_t>(d)];
    out.finish_ms = ds.clock_ms;
    out.busy_ms = ds.busy_ms;
    out.peak_memory_mb = ds.memory->peak_mb();
    result.makespan_ms = std::max(result.makespan_ms, ds.clock_ms);
    if (ds.memory->oom()) {
      result.oom = true;
      if (result.diagnostic.empty()) {
        result.diagnostic = "device " + std::to_string(d) + ": " +
                            ds.memory->DescribeOom();
      }
    }
  }
  result.makespan_ms = std::max(result.makespan_ms, last_transfer_end_ms);

  if (!all_done) {
    result.deadlocked = true;
    std::ostringstream oss;
    oss << "deadlock: ";
    for (int32_t d = 0; d < num_devices_; ++d) {
      const DeviceState& ds = devices[static_cast<size_t>(d)];
      if (!ds.done) {
        const auto& instrs = plan.devices[static_cast<size_t>(d)].instructions;
        oss << "[dev " << d << " stuck at #" << ds.pc << " "
            << instrs[ds.pc].ToString() << "] ";
      }
    }
    for (const auto& [key, ch] : channels) {
      if (ch.HasPendingOps()) {
        oss << ch.DescribeHeads() << " ";
      }
    }
    result.diagnostic = oss.str();
  }
  return result;
}

}  // namespace dynapipe::sim
