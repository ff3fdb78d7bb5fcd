#include "inputs.hpp"

#include <algorithm>

#include "llmprism/common/rng.hpp"

namespace perfbench {

using namespace llmprism;

namespace {

/// Collection noise shaped like the paper's Table I setting: a fifth of the
/// pairs lose bursts with per-pair probabilities around 1/2, plus drops,
/// duplicates and timestamp jitter.
NoiseConfig table1_noise() {
  NoiseConfig noise;
  noise.degraded_pair_fraction = 0.28;
  noise.truncation_prob_min = 0.25;
  noise.truncation_prob_max = 0.47;
  noise.drop_rate = 0.01;
  noise.duplicate_rate = 0.005;
  noise.time_jitter = 50 * kMicrosecond;
  return noise;
}

std::uint32_t pick(Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  return static_cast<std::uint32_t>(rng.uniform_int(lo, hi));
}

/// A straggler in the first half of the steps and a two-step slow ring in
/// the second half, placed as the attribution evaluation places them so
/// the k-sigma detectors have clean baseline steps on both sides.
StragglerSpec random_straggler(Rng& rng, const ParallelismConfig& par,
                               std::uint32_t steps) {
  StragglerSpec s;
  s.rank = pick(rng, 0, par.world_size() - 1);
  s.step_begin = pick(rng, 5, steps / 2 - 2);
  s.step_end = s.step_begin;
  s.slowdown = rng.uniform(1.8, 3.0);
  return s;
}

SlowDpGroupSpec random_ring(Rng& rng, const ParallelismConfig& par,
                            std::uint32_t steps) {
  SlowDpGroupSpec g;
  g.tp_idx = pick(rng, 0, par.tp - 1);
  g.pp_idx = pick(rng, 0, par.pp - 1);
  g.step_begin = pick(rng, steps / 2 + 2, steps - 4);
  g.step_end = g.step_begin + 1;
  g.slowdown = rng.uniform(2.0, 4.0);
  return g;
}

JobSimConfig tenant(const ParallelismConfig& par, std::uint32_t steps,
                    TimeNs start) {
  JobSimConfig job;
  job.parallelism = par;
  job.num_steps = steps;
  job.start_time = start;
  return job;
}

/// The fleet tenant shapes, in the proportions of one 64-machine mix
/// (7 + 5 + 6 + 6 = 24 tenants on 14 + 20 + 12 + 18 = 64 machines).
std::vector<ParallelismConfig> fleet_shapes() {
  std::vector<ParallelismConfig> shapes;
  auto add = [&](std::uint32_t n, ParallelismConfig par) {
    shapes.insert(shapes.end(), n, par);
  };
  add(7, {.tp = 8, .dp = 2, .pp = 1, .micro_batches = 4});
  add(5, {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4});
  add(6, {.tp = 4, .dp = 2, .pp = 2, .micro_batches = 4});
  add(3, {.tp = 8, .dp = 1, .pp = 2, .micro_batches = 4});
  add(3, {.tp = 8, .dp = 1, .pp = 4, .micro_batches = 4});
  return shapes;
}

/// Assign `shapes` to a random permutation of `machines`, in order.
std::vector<ClusterJobSpec> place(const std::vector<JobSimConfig>& jobs,
                                  std::vector<MachineId> machines, Rng& rng) {
  for (std::size_t i = machines.size(); i > 1; --i) {
    std::swap(machines[i - 1], machines[static_cast<std::size_t>(
                                   rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<ClusterJobSpec> specs;
  std::size_t next = 0;
  for (const JobSimConfig& job : jobs) {
    const std::uint32_t need = job.parallelism.world_size() / 8;
    ClusterJobSpec spec{job, {}};
    for (std::uint32_t m = 0; m < need; ++m) spec.machines.push_back(machines[next++]);
    std::sort(spec.machines.begin(), spec.machines.end());
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<MachineId> machine_range(std::uint32_t first, std::uint32_t n) {
  std::vector<MachineId> out;
  for (std::uint32_t m = 0; m < n; ++m) out.emplace_back(first + m);
  return out;
}

}  // namespace

TopologyConfig bigjob_topology() {
  return {.num_machines = 32, .gpus_per_machine = 8, .machines_per_leaf = 4,
          .num_spines = 4};
}

TopologyConfig fleet_topology() {
  return {.num_machines = 64, .gpus_per_machine = 8, .machines_per_leaf = 8,
          .num_spines = 4};
}

SimWindow bigjob_window(std::uint64_t seed, std::size_t index) {
  constexpr std::uint32_t kSteps = 16;
  const ParallelismConfig par{.tp = 8, .dp = 8, .pp = 4, .micro_batches = 2};
  Rng rng = Rng(seed).fork(2 * index + 1);
  ClusterSimConfig cfg;
  cfg.topology = bigjob_topology();
  cfg.seed = rng.engine()();
  cfg.noise = table1_noise();
  JobSimConfig job = tenant(par, kSteps, 0);
  InjectedFault straggler;
  straggler.parallelism = par;
  straggler.straggler = random_straggler(rng, par, kSteps);
  job.stragglers.push_back(straggler.straggler);
  InjectedFault ring;
  ring.kind = InjectedFault::Kind::kSlowRing;
  ring.parallelism = par;
  ring.ring = random_ring(rng, par, kSteps);
  job.slow_dp_groups.push_back(ring.ring);
  InjectedFault sw;
  sw.kind = InjectedFault::Kind::kSwitch;
  const ClusterTopology topo = ClusterTopology::build(cfg.topology);
  sw.switch_id = SwitchId(pick(rng, 0, topo.num_switches() - 1));
  cfg.switch_faults.push_back({.switch_id = sw.switch_id,
                               .window = {0, 2 * kHour},
                               .bandwidth_factor = rng.uniform(0.25, 0.4)});
  cfg.jobs.push_back({job, {}});
  return {run_cluster_sim(cfg), {straggler, ring, sw}};
}

SimWindow fleet_window(std::uint64_t seed, std::size_t index) {
  constexpr std::uint32_t kSteps = 16;
  Rng rng = Rng(seed).fork(2 * index + 2);
  ClusterSimConfig cfg;
  cfg.topology = fleet_topology();
  cfg.seed = rng.engine()();
  cfg.noise = table1_noise();
  std::vector<JobSimConfig> jobs;
  for (const ParallelismConfig& par : fleet_shapes()) {
    jobs.push_back(tenant(par, kSteps,
                          static_cast<TimeNs>(rng.uniform(0.0, 2.0) * kSecond)));
  }
  // Three stragglers and three slow rings, on distinct tenants that have DP.
  std::vector<InjectedFault> faults;
  std::vector<std::size_t> with_dp;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].parallelism.dp > 1) with_dp.push_back(j);
  }
  for (std::size_t f = 0; f < 6; ++f) {
    const std::size_t k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(with_dp.size()) - 1));
    const std::size_t j = with_dp[k];
    with_dp.erase(with_dp.begin() + static_cast<std::ptrdiff_t>(k));
    InjectedFault fault;
    fault.job = j;
    fault.parallelism = jobs[j].parallelism;
    if (f % 2 == 0) {
      fault.kind = InjectedFault::Kind::kStraggler;
      fault.straggler = random_straggler(rng, fault.parallelism, kSteps);
      jobs[j].stragglers.push_back(fault.straggler);
    } else {
      fault.kind = InjectedFault::Kind::kSlowRing;
      fault.ring = random_ring(rng, fault.parallelism, kSteps);
      jobs[j].slow_dp_groups.push_back(fault.ring);
    }
    faults.push_back(fault);
  }
  cfg.jobs = place(jobs, machine_range(0, 64), rng);
  return {run_cluster_sim(cfg), std::move(faults)};
}

StreamFeed make_stream_feed(std::uint64_t seed, std::uint32_t first_machine,
                            TimeNs origin, DurationNs length,
                            DurationNs chunk) {
  // Per epoch: 3 x tp8/dp2/pp1, 2 x tp4/dp2/pp2 and 1 x tp8/dp1/pp2 tenants
  // (12 of the stream's 32 machines), re-placed on a fresh random subset
  // each epoch so identities churn. 40 steps of these shapes take 12-15 s,
  // so every tenant is still running when its 11 s epoch ends and is cut
  // there: no window is ever idle.
  constexpr DurationNs kEpoch = 11 * kSecond;
  constexpr std::uint32_t kSteps = 40;
  const std::vector<ParallelismConfig> shapes = {
      {.tp = 8, .dp = 2, .pp = 1, .micro_batches = 4},
      {.tp = 8, .dp = 2, .pp = 1, .micro_batches = 4},
      {.tp = 8, .dp = 2, .pp = 1, .micro_batches = 4},
      {.tp = 4, .dp = 2, .pp = 2, .micro_batches = 4},
      {.tp = 4, .dp = 2, .pp = 2, .micro_batches = 4},
      {.tp = 8, .dp = 1, .pp = 2, .micro_batches = 4}};
  Rng rng = Rng(seed).fork(1000 + first_machine);
  FlowTrace feed;
  StreamFeed out;
  for (TimeNs epoch = origin; epoch < origin + length; epoch += kEpoch) {
    const TimeNs epoch_end = std::min(epoch + kEpoch, origin + length);
    ClusterSimConfig cfg;
    cfg.topology = fleet_topology();
    cfg.seed = rng.engine()();
    cfg.noise = table1_noise();
    std::vector<JobSimConfig> jobs;
    for (const ParallelismConfig& par : shapes) {
      JobSimConfig job = tenant(
          par, kSteps, epoch + static_cast<TimeNs>(rng.uniform(0.0, 0.2) * kSecond));
      // Every DP tenant carries one fault: a straggler or a slow ring.
      if (par.dp > 1 && rng.uniform(0.0, 1.0) < 0.5) {
        job.stragglers.push_back(random_straggler(rng, par, 30));
      } else if (par.dp > 1) {
        job.slow_dp_groups.push_back(random_ring(rng, par, 30));
      }
      jobs.push_back(job);
    }
    cfg.jobs = place(jobs, machine_range(first_machine, 32), rng);
    ClusterSimResult sim = run_cluster_sim(cfg);
    feed.append(sim.trace.window({epoch, epoch_end}));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      // Truth of the part of the tenant's run that is inside the feed.
      JobTruth& truth = sim.jobs[j];
      while (!truth.steps.empty() && truth.steps.back().end > epoch_end) {
        truth.steps.pop_back();
      }
      for (auto& spans : truth.dp_group_spans) {
        std::erase_if(spans, [&](const DpGroupStepTruth& g) {
          return g.dp_end > epoch_end;
        });
      }
      StreamTenant tenant_truth{std::move(truth), jobs[j].parallelism, {}, {},
                                epoch_end};
      for (const StragglerSpec& f : jobs[j].stragglers) {
        if (f.step_end < tenant_truth.truth.steps.size()) tenant_truth.stragglers.push_back(f);
      }
      for (const SlowDpGroupSpec& f : jobs[j].slow_dp_groups) {
        if (f.step_end < tenant_truth.truth.steps.size()) tenant_truth.rings.push_back(f);
      }
      out.tenants.push_back(std::move(tenant_truth));
    }
  }
  feed.sort();
  out.flows = feed.size();
  for (TimeNs t = origin; t < origin + length; t += chunk) {
    out.chunks.push_back(feed.window({t, t + chunk}));
  }
  return out;
}

}  // namespace perfbench
