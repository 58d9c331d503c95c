#include "src/schedule/adaptive_scheduler.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "src/common/check.h"

namespace dynapipe::schedule {

OpCostsBuild BuildOpCosts(int32_t num_stages,
                          const std::vector<model::MicroBatchShape>& shapes,
                          const ShapePricer& price) {
  OpCostsBuild out;
  const int32_t c = num_stages;
  const int32_t m = static_cast<int32_t>(shapes.size());
  out.costs.fwd_ms.assign(static_cast<size_t>(c),
                          std::vector<double>(static_cast<size_t>(m)));
  out.costs.bwd_ms = out.costs.fwd_ms;
  out.costs.act_mb = out.costs.fwd_ms;
  out.mb_time.assign(static_cast<size_t>(m), 0.0);

  // Dedup shapes before pricing: micro-batches cut from runs of equal-length
  // samples collapse to the same padded shape.
  std::vector<size_t> distinct_of(static_cast<size_t>(m));
  std::vector<model::MicroBatchShape> distinct;
  {
    std::unordered_map<uint64_t, size_t> seen;
    seen.reserve(static_cast<size_t>(m));
    for (int32_t k = 0; k < m; ++k) {
      const model::MicroBatchShape& shape = shapes[static_cast<size_t>(k)];
      // Lengths are < 2^24 and counts < 2^16, so the pack is collision-free.
      const uint64_t key = (static_cast<uint64_t>(shape.num_samples) << 48) |
                           (static_cast<uint64_t>(shape.input_len) << 24) |
                           static_cast<uint64_t>(shape.target_len);
      const auto [it, inserted] = seen.emplace(key, distinct.size());
      if (inserted) {
        distinct.push_back(shape);
      }
      distinct_of[static_cast<size_t>(k)] = it->second;
    }
  }
  const size_t sc = static_cast<size_t>(c);
  std::vector<double> d_fwd(distinct.size() * sc);
  std::vector<double> d_bwd(distinct.size() * sc);
  std::vector<double> d_act(distinct.size() * sc);
  for (size_t u = 0; u < distinct.size(); ++u) {
    price(distinct[u], &d_fwd[u * sc], &d_bwd[u * sc], &d_act[u * sc]);
  }
  for (int32_t k = 0; k < m; ++k) {
    const size_t sk = static_cast<size_t>(k);
    const size_t u = distinct_of[sk] * sc;
    for (size_t s = 0; s < sc; ++s) {
      out.costs.fwd_ms[s][sk] = d_fwd[u + s];
      out.costs.bwd_ms[s][sk] = d_bwd[u + s];
      out.costs.act_mb[s][sk] = d_act[u + s];
      out.mb_time[sk] = std::max(out.mb_time[sk], d_fwd[u + s] + d_bwd[u + s]);
    }
  }
  return out;
}

std::optional<PipelineSchedule> MemoryAwareAdaptiveSchedule(
    const OpCosts& costs, const AdaptiveScheduleOptions& options) {
  costs.Validate();
  const int32_t c = costs.num_stages();
  const int32_t m = costs.num_microbatches();
  if (!options.device_limit_mb.empty()) {
    DYNAPIPE_CHECK(options.device_limit_mb.size() == static_cast<size_t>(c));
  }

  // Ready-op buffers per device (Alg. 1's S_f, S_b) and current memory m_j.
  std::vector<std::deque<int32_t>> fwd_buf(static_cast<size_t>(c));
  std::vector<std::deque<int32_t>> bwd_buf(static_cast<size_t>(c));
  std::vector<double> mem(static_cast<size_t>(c), 0.0);

  // Line 3: initialize the first stage's forward buffer with all micro-batches, in
  // injection order.
  if (options.injection_order.empty()) {
    for (int32_t i = 0; i < m; ++i) {
      fwd_buf[0].push_back(i);
    }
  } else {
    DYNAPIPE_CHECK(options.injection_order.size() == static_cast<size_t>(m));
    std::vector<bool> seen(static_cast<size_t>(m), false);
    for (const int32_t i : options.injection_order) {
      DYNAPIPE_CHECK(i >= 0 && i < m);
      DYNAPIPE_CHECK_MSG(!seen[static_cast<size_t>(i)], "duplicate micro-batch");
      seen[static_cast<size_t>(i)] = true;
      fwd_buf[0].push_back(i);
    }
  }

  PipelineSchedule sched;
  sched.num_microbatches = m;
  sched.devices.resize(static_cast<size_t>(c));

  // Ops unlocked during the current cycle join the buffers only at the cycle end
  // (Alg. 1's N_f, N_b), which is what makes scheduling proceed in waves.
  std::vector<std::vector<int32_t>> new_fwd(static_cast<size_t>(c));
  std::vector<std::vector<int32_t>> new_bwd(static_cast<size_t>(c));

  auto buffers_empty = [&]() {
    for (int32_t j = 0; j < c; ++j) {
      if (!fwd_buf[static_cast<size_t>(j)].empty() ||
          !bwd_buf[static_cast<size_t>(j)].empty()) {
        return false;
      }
    }
    return true;
  };

  while (!buffers_empty()) {
    bool progress = false;
    for (int32_t j = 0; j < c; ++j) {
      const size_t sj = static_cast<size_t>(j);
      new_fwd[sj].clear();
      new_bwd[sj].clear();
    }
    for (int32_t j = 0; j < c; ++j) {
      const size_t sj = static_cast<size_t>(j);
      if (!bwd_buf[sj].empty()) {  // lines 7-11: schedule one backward
        const int32_t i = bwd_buf[sj].front();
        bwd_buf[sj].pop_front();
        mem[sj] -= costs.act_mb[sj][static_cast<size_t>(i)];
        sched.devices[sj].push_back({i, true});
        if (j > 0) {
          new_bwd[sj - 1].push_back(i);
        }
        progress = true;
      }
      if (!fwd_buf[sj].empty()) {  // lines 12-19: schedule one forward
        const int32_t i = fwd_buf[sj].front();
        const double a = costs.act_mb[sj][static_cast<size_t>(i)];
        const bool fits = options.device_limit_mb.empty() ||
                          mem[sj] + a < options.device_limit_mb[sj];
        if (fits) {
          fwd_buf[sj].pop_front();
          mem[sj] += a;
          sched.devices[sj].push_back({i, false});
          if (j + 1 < c) {
            new_fwd[sj + 1].push_back(i);
          } else {
            new_bwd[sj].push_back(i);  // last stage: forward unlocks its backward
          }
          progress = true;
        }
        // else: leave at buffer head (Alg. 1 line 19) and retry next cycle.
      }
    }
    for (int32_t j = 0; j < c; ++j) {
      const size_t sj = static_cast<size_t>(j);
      for (const int32_t i : new_fwd[sj]) {
        fwd_buf[sj].push_back(i);
      }
      for (const int32_t i : new_bwd[sj]) {
        bwd_buf[sj].push_back(i);
      }
    }
    if (!progress) {
      // Every device is blocked on memory with nothing in flight to free it — a
      // single micro-batch exceeds some device limit.
      return std::nullopt;
    }
  }
  return sched;
}

std::vector<double> ScheduleMemoryHighWater(const PipelineSchedule& schedule,
                                            const OpCosts& costs) {
  costs.Validate();
  DYNAPIPE_CHECK(schedule.num_stages() == costs.num_stages());
  std::vector<double> high_water(static_cast<size_t>(schedule.num_stages()), 0.0);
  for (int32_t j = 0; j < schedule.num_stages(); ++j) {
    const size_t sj = static_cast<size_t>(j);
    double cur = 0.0;
    for (const auto& op : schedule.devices[sj]) {
      const double a = costs.act_mb[sj][static_cast<size_t>(op.microbatch)];
      if (op.is_backward) {
        cur -= a;
      } else {
        cur += a;
        high_water[sj] = std::max(high_water[sj], cur);
      }
    }
  }
  return high_water;
}

}  // namespace dynapipe::schedule
