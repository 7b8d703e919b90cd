#include "mapreduce/fault_injection.h"

#include <cstdlib>
#include <stdexcept>

#include "util/parse.h"

namespace smr {

namespace {

[[noreturn]] void PlanError(const std::string& message) {
  throw std::invalid_argument("fault plan: " + message);
}

/// SplitMix64 — the same generator seeding util/rng.h; enough to derive a
/// deterministic default `after_frames` per spec from the plan seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

uint64_t RequireCount(std::string_view text, const char* what) {
  const auto value = ParseInt64(text);
  if (!value || *value < 0) {
    PlanError(std::string(what) + " needs a nonnegative integer, got '" +
              std::string(text) + "'");
  }
  return static_cast<uint64_t>(*value);
}

/// The injector whose spill failures are armed on this thread, if any:
/// each map link drains on its own coordinator thread, so arming one
/// link's drain fails no other link's appends.
thread_local const FaultInjector* armed_spill_injector = nullptr;

}  // namespace

const char* FaultKindName(FaultKind kind) {
  return EnumTraits<FaultKind>::Name(kind);
}

FaultPlan ParseFaultPlan(std::string_view text) {
  FaultPlan plan;
  std::vector<bool> derived_after;  // specs whose after= was omitted
  for (std::string_view raw : Split(text, ';')) {
    const std::string_view item = Trim(raw);
    if (item.empty()) continue;
    if (item.rfind("seed=", 0) == 0) {
      plan.seed = RequireCount(item.substr(5), "seed");
      continue;
    }
    const std::vector<std::string_view> fields = Split(item, ':');
    if (fields.size() < 3) {
      PlanError("spec '" + std::string(item) +
                "' needs role:kind:worker at least");
    }
    FaultSpec spec;
    // Role and kind tokens parse through the enum registries, so the
    // grammar — and these error messages — track the enum definitions.
    const std::string_view role = Trim(fields[0]);
    if (const auto parsed_role = EnumTraits<WorkerRole>::FromName(role)) {
      spec.role = *parsed_role;
    } else {
      PlanError("role must be " + EnumNameList<WorkerRole>() + ", got '" +
                std::string(role) + "'");
    }
    const std::string_view kind = Trim(fields[1]);
    if (const auto parsed_kind = EnumTraits<FaultKind>::FromName(kind)) {
      spec.kind = *parsed_kind;
    } else {
      PlanError("kind must be " + EnumNameList<FaultKind>() + ", got '" +
                std::string(kind) + "'");
    }
    if (spec.kind == FaultKind::kFailSpillAppend &&
        spec.role != WorkerRole::kMap) {
      PlanError("spillfail targets the coordinator's drain of a map link; "
                "its role must be map");
    }
    spec.worker = static_cast<unsigned>(
        RequireCount(Trim(fields[2]), "worker index"));
    bool saw_after = false;
    for (size_t i = 3; i < fields.size(); ++i) {
      const std::string_view option = Trim(fields[i]);
      if (option.rfind("after=", 0) == 0) {
        spec.after_frames = RequireCount(option.substr(6), "after");
        saw_after = true;
      } else if (option.rfind("times=", 0) == 0) {
        const uint64_t times = RequireCount(option.substr(6), "times");
        if (times == 0) PlanError("times must be >= 1");
        spec.times = static_cast<unsigned>(times);
      } else {
        PlanError("unknown option '" + std::string(option) +
                  "' (expected after=N or times=N)");
      }
    }
    derived_after.push_back(!saw_after);
    plan.faults.push_back(spec);
  }
  // Seed-derived defaults: deterministic given (seed, spec position), so a
  // plan without explicit after= is still exactly reproducible.
  for (size_t i = 0; i < plan.faults.size(); ++i) {
    if (derived_after[i]) {
      plan.faults[i].after_frames = Mix(plan.seed + i) % 8;
    }
  }
  return plan;
}

/// Delegating backend whose files fail Append while the injector has a
/// spill failure armed — the drain window of a worker whose plan spec says
/// kFailSpillAppend. ReadAt always delegates: read faults stay PR 6's
/// SpillBackend-level concern.
class FaultInjector::FaultySpillBackend final : public SpillBackend {
  class FaultyFile final : public SpillFile {
   public:
    FaultyFile(std::unique_ptr<SpillFile> inner, FaultInjector* injector)
        : inner_(std::move(inner)), injector_(injector) {}

    void Append(const void* data, size_t bytes) override {
      if (injector_->spill_failure_armed()) {
        injector_->kind_fires_[static_cast<int>(
            FaultKind::kFailSpillAppend)]++;
        injector_->fires_++;
        throw std::runtime_error("injected spill append failure on " +
                                 inner_->path());
      }
      inner_->Append(data, bytes);
    }

    void ReadAt(uint64_t offset, void* out, size_t bytes) override {
      inner_->ReadAt(offset, out, bytes);
    }

    const std::string& path() const override { return inner_->path(); }

   private:
    std::unique_ptr<SpillFile> inner_;
    FaultInjector* injector_;
  };

 public:
  explicit FaultySpillBackend(FaultInjector* injector)
      : injector_(injector) {}

  void set_inner(SpillBackend* inner) {
    inner_ = inner != nullptr ? inner : &DefaultSpillBackend();
  }

  std::unique_ptr<SpillFile> Create() override {
    return std::make_unique<FaultyFile>(inner_->Create(), injector_);
  }

 private:
  FaultInjector* injector_;
  SpillBackend* inner_ = nullptr;
};

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  remaining_.reserve(plan_.faults.size());
  for (const FaultSpec& spec : plan_.faults) {
    remaining_.push_back(spec.times);
  }
}

FaultInjector::~FaultInjector() = default;

std::optional<ArmedFault> FaultInjector::ArmSpawn(WorkerRole role,
                                                  unsigned worker) {
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (remaining_[i] == 0 || spec.role != role || spec.worker != worker) {
      continue;
    }
    --remaining_[i];
    // Spill failures are counted when an append actually throws (the plan
    // may arm one on a round that never spills); everything else fires by
    // construction once armed.
    if (spec.kind != FaultKind::kFailSpillAppend) {
      ++fires_;
      ++kind_fires_[static_cast<int>(spec.kind)];
    }
    return ArmedFault{spec.kind, spec.after_frames};
  }
  return std::nullopt;
}

SpillBackend* FaultInjector::WrapSpillBackend(SpillBackend* inner) {
  if (spill_wrapper_ == nullptr) {
    spill_wrapper_ = std::make_unique<FaultySpillBackend>(this);
  }
  spill_wrapper_->set_inner(inner);
  return spill_wrapper_.get();
}

void FaultInjector::ArmSpillFailure() { armed_spill_injector = this; }

void FaultInjector::DisarmSpillFailure() { armed_spill_injector = nullptr; }

bool FaultInjector::spill_failure_armed() const {
  return armed_spill_injector == this;
}

uint64_t FaultInjector::fires(FaultKind kind) const {
  return kind_fires_[static_cast<int>(kind)];
}

FaultInjector* EnvFaultInjector() {
  static std::string last_spec;
  static std::unique_ptr<FaultInjector> injector;
  const char* env = std::getenv("SMR_FAULT_PLAN");
  const std::string spec = env != nullptr ? env : "";
  if (spec.empty()) {
    injector.reset();
    last_spec.clear();
    return nullptr;
  }
  if (injector == nullptr || spec != last_spec) {
    injector = std::make_unique<FaultInjector>(ParseFaultPlan(spec));
    last_spec = spec;
  }
  return injector.get();
}

}  // namespace smr
