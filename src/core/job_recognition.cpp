#include "llmprism/core/job_recognition.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>

#include "llmprism/common/disjoint_set.hpp"
#include "llmprism/common/stats.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

JobRecognizer::JobRecognizer(const ClusterTopology& topology,
                             JobRecognitionConfig config)
    : topology_(topology), config_(config) {
  if (config_.jaccard_threshold <= 0.0 || config_.jaccard_threshold > 1.0) {
    throw std::invalid_argument(
        "job recognition: jaccard_threshold must be in (0, 1]");
  }
}

namespace {

/// Phase-1 endpoint interning + union, shared by both recognize()
/// overloads. GPU ids are dense in [0, num_gpus) (topology.hpp), so one
/// flat GPU -> slot table replaces a hash map: a flow costs two loads and
/// one unite. Slots are numbered in first-appearance order; the partition
/// is a pure function of the edge set either way.
struct EndpointUnion {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::vector<std::uint32_t> slot_of;  ///< GPU id -> slot, kNoSlot if unseen
  std::vector<GpuId> gpu_of;           ///< slot -> GPU id
  DisjointSet sets{0};

  explicit EndpointUnion(const ClusterTopology& topology)
      : slot_of(topology.num_gpus(), kNoSlot) {}

  void add_edge(std::uint32_t src, std::uint32_t dst) {
    sets.unite(intern(src), intern(dst));
  }

 private:
  std::uint32_t intern(std::uint32_t gpu) {
    if (gpu >= slot_of.size()) {
      throw std::out_of_range("topology: GPU id out of range");
    }
    std::uint32_t& slot = slot_of[gpu];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(sets.add());
      gpu_of.emplace_back(gpu);
    }
    return slot;
  }
};

JobRecognitionResult recognize_endpoints(const ClusterTopology& topology,
                                         const JobRecognitionConfig& config,
                                         EndpointUnion&& endpoints) {
  JobRecognitionResult result;
  std::vector<GpuId>& gpu_of = endpoints.gpu_of;
  DisjointSet& sets = endpoints.sets;

  const auto components = sets.groups(/*include_singletons=*/false);
  result.num_cross_machine_clusters = components.size();

  // ---- phase 2: merge clusters with matching machine sets (lines 9-13) ----
  std::vector<std::vector<GpuId>> clusters;
  std::vector<std::unordered_set<MachineId>> machine_sets;
  clusters.reserve(components.size());
  for (const auto& comp : components) {
    std::vector<GpuId> gpus;
    gpus.reserve(comp.size());
    std::unordered_set<MachineId> machines;
    for (const std::size_t idx : comp) {
      gpus.push_back(gpu_of[idx]);
      machines.insert(topology.machine_of(gpu_of[idx]));
    }
    std::sort(gpus.begin(), gpus.end());
    clusters.push_back(std::move(gpus));
    machine_sets.push_back(std::move(machines));
  }

  DisjointSet cluster_sets(clusters.size());
  if (config.jaccard_threshold == 1.0) {
    // Exact machine-set equality: hash by canonical key, O(C).
    std::map<std::vector<MachineId>, std::size_t> by_key;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      std::vector<MachineId> key(machine_sets[c].begin(),
                                 machine_sets[c].end());
      std::sort(key.begin(), key.end());
      const auto [it, inserted] = by_key.emplace(std::move(key), c);
      if (!inserted) cluster_sets.unite(it->second, c);
    }
  } else {
    // Thresholded Jaccard: pairwise, O(C^2) over cluster count (small).
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        if (stats::jaccard(machine_sets[i], machine_sets[j]) >=
            config.jaccard_threshold) {
          cluster_sets.unite(i, j);
        }
      }
    }
  }

  // ---- assemble job-level clusters ----
  for (const auto& merged : cluster_sets.groups(/*include_singletons=*/true)) {
    RecognizedJob job;
    std::unordered_set<MachineId> machines;
    for (const std::size_t c : merged) {
      job.cross_machine_clusters.push_back(clusters[c]);
      job.observed_gpus.insert(job.observed_gpus.end(), clusters[c].begin(),
                               clusters[c].end());
      machines.insert(machine_sets[c].begin(), machine_sets[c].end());
    }
    // Canonical cluster order (clusters are disjoint and internally
    // sorted, so the first GPU is a total order). This makes the result a
    // pure function of the undirected edge SET, independent of flow order
    // — the invariant the session's recognition fast path relies on.
    std::sort(job.cross_machine_clusters.begin(),
              job.cross_machine_clusters.end(),
              [](const std::vector<GpuId>& a, const std::vector<GpuId>& b) {
                return a.front() < b.front();
              });
    std::sort(job.observed_gpus.begin(), job.observed_gpus.end());
    job.machines.assign(machines.begin(), machines.end());
    std::sort(job.machines.begin(), job.machines.end());

    if (config.include_machine_local_gpus) {
      for (const MachineId m : job.machines) {
        const auto local = topology.gpus_on(m);
        job.gpus.insert(job.gpus.end(), local.begin(), local.end());
      }
      std::sort(job.gpus.begin(), job.gpus.end());
    } else {
      job.gpus = job.observed_gpus;
    }
    result.jobs.push_back(std::move(job));
  }

  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const RecognizedJob& a, const RecognizedJob& b) {
              return a.gpus.front() < b.gpus.front();
            });
  return result;
}

}  // namespace

JobRecognitionResult JobRecognizer::recognize(const FlowTrace& trace) const {
  EndpointUnion endpoints(topology_);
  for (const FlowRecord& f : trace) {
    endpoints.add_edge(f.src.value(), f.dst.value());
  }
  return recognize_endpoints(topology_, config_, std::move(endpoints));
}

JobRecognitionResult JobRecognizer::recognize(const FlowView& view) const {
  EndpointUnion endpoints(topology_);
  for (std::size_t i = 0; i < view.size(); ++i) {
    endpoints.add_edge(view.src[i], view.dst[i]);
  }
  return recognize_endpoints(topology_, config_, std::move(endpoints));
}

}  // namespace llmprism
