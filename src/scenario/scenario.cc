#include "scenario/scenario.h"

#include "util/rng.h"

namespace mbi::scenario {

size_t ScenarioSpec::TotalAdds() const {
  size_t total = 0;
  for (const PhaseSpec& p : phases) total += p.adds;
  return total;
}

Status ScenarioSpec::Validate() const {
  if (name.empty()) return Status::InvalidArgument("scenario needs a name");
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (phases.empty()) {
    return Status::InvalidArgument("scenario needs at least one phase");
  }
  MBI_RETURN_IF_ERROR(index.Validate());
  if (is_sharded()) {
    MBI_RETURN_IF_ERROR(sharded.Validate());
    // Synthetic timestamps are 0..n-1, so the fleet is ceil(n / span).
    const auto span = static_cast<size_t>(sharded.shard_span);
    if (fault_shard >= (TotalAdds() + span - 1) / span) {
      return Status::InvalidArgument("fault_shard beyond the fleet");
    }
  }
  bool checkpointed = false;
  for (const PhaseSpec& p : phases) {
    if (p.name.empty()) {
      return Status::InvalidArgument("phase needs a name");
    }
    if (p.queries_per_add < 0.0) {
      return Status::InvalidArgument("queries_per_add must be >= 0 in phase " +
                                     p.name);
    }
    if (p.mix.window_fractions.empty() || p.mix.ks.empty() ||
        p.mix.budget_classes.empty()) {
      return Status::InvalidArgument("empty query mix in phase " + p.name);
    }
    for (double f : p.mix.window_fractions) {
      if (f <= 0.0 || f > 1.0) {
        return Status::InvalidArgument(
            "window fractions must be in (0, 1] in phase " + p.name);
      }
    }
    for (size_t k : p.mix.ks) {
      if (k == 0) {
        return Status::InvalidArgument("k must be positive in phase " +
                                       p.name);
      }
    }
    if (p.adds > 0 && p.epilogue_queries > 0) {
      return Status::InvalidArgument(
          "epilogue_queries is for query-only phases, in phase " + p.name);
    }
    checkpointed = checkpointed || p.checkpoints > 0;
    if (p.crash_and_recover && !checkpointed) {
      return Status::InvalidArgument(
          "crash_and_recover needs a checkpoint in this or an earlier phase, "
          "in phase " + p.name);
    }
    if (p.crash_and_recover && (p.adds == 0) != is_sharded()) {
      return Status::InvalidArgument(
          "crash_and_recover: an MbiIndex crashes mid-ingest, a shard across "
          "a query-only phase, in phase " + p.name);
    }
    if (p.overload_factor > 0.0 &&
        (index.max_inflight_queries == 0 || is_sharded())) {
      return Status::InvalidArgument(
          "overload_factor needs an MbiIndex with index.max_inflight_queries "
          "> 0, in phase " + p.name);
    }
    if (p.adds > 0 && p.checkpoints > p.adds) {
      return Status::InvalidArgument("more checkpoints than adds in phase " +
                                     p.name);
    }
    if (p.brownout_delay_seconds < 0.0 || p.brownout_shed_prob < 0.0 ||
        p.brownout_shed_prob > 1.0 ||
        (!is_sharded() &&
         (p.brownout_delay_seconds > 0.0 || p.brownout_shed_prob > 0.0))) {
      return Status::InvalidArgument(
          "brownouts need a sharded target, delay >= 0 and shed in [0, 1], "
          "in phase " + p.name);
    }
  }
  if (bounds.recall_floor < 0.0 || bounds.recall_floor > 1.0) {
    return Status::InvalidArgument("recall_floor must be in [0, 1]");
  }
  if (bounds.p99_overshoot_factor < 1.0) {
    return Status::InvalidArgument("p99_overshoot_factor must be >= 1");
  }
  return Status::Ok();
}

uint64_t DeriveSeed(uint64_t scenario_seed, SeedStream stream, uint64_t salt) {
  // Two SplitMix64 steps fully mix (seed, stream, salt); the streams stay
  // independent no matter how many values each consumes.
  SplitMix64 sm(scenario_seed ^ (static_cast<uint64_t>(stream) *
                                 0x9E3779B97F4A7C15ULL));
  sm.Next();
  SplitMix64 salted(sm.Next() ^ (salt * 0xBF58476D1CE4E5B9ULL));
  return salted.Next();
}

uint64_t DeriveSeed(uint64_t scenario_seed, std::string_view name) {
  return DeriveSeedStream(scenario_seed, name);
}

}  // namespace mbi::scenario
