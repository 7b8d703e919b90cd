#include "core/strategy.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "directed/directed_graph.h"
#include "graph/sample_graph.h"
#include "labeled/labeled_graph.h"
#include "util/parse.h"

namespace smr {

namespace {

std::vector<std::string> SplitOn(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    parts.emplace_back(s.substr(start, pos - start));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return parts;
}

[[noreturn]] void SpecError(const std::string& message) {
  throw std::invalid_argument("strategy spec: " + message);
}

int PatternVars(const EnumerationQuery& query) {
  if (query.pattern != nullptr) return query.pattern->num_vars();
  if (query.labeled_pattern != nullptr) {
    return query.labeled_pattern->num_vars();
  }
  return query.directed_pattern->num_vars();
}

/// Number of pattern edges (arcs, for a directed pattern) at variable v.
int VariableDegree(const EnumerationQuery& query, int v) {
  if (query.pattern != nullptr) return query.pattern->Degree(v);
  if (query.labeled_pattern != nullptr) {
    return query.labeled_pattern->skeleton().Degree(v);
  }
  return static_cast<int>(query.directed_pattern->Neighbors(v).size());
}

}  // namespace

// ---------------------------------------------------------------------------
// TunableValue / StrategySpec
// ---------------------------------------------------------------------------

TunableValue TunableValue::Int(int64_t v) {
  TunableValue value;
  value.kind = Kind::kInt;
  value.int_value = v;
  return value;
}

TunableValue TunableValue::Double(double v) {
  TunableValue value;
  value.kind = Kind::kDouble;
  value.double_value = v;
  return value;
}

TunableValue TunableValue::IntList(std::vector<int> v) {
  TunableValue value;
  value.kind = Kind::kIntList;
  value.list_value = std::move(v);
  return value;
}

std::string TunableValue::Render() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kInt:
      os << int_value;
      break;
    case Kind::kDouble:
      // Integral doubles print as integers so the canonical form of
      // "variable-auto:256" round-trips to itself.
      if (std::isfinite(double_value) &&
          double_value == std::floor(double_value) &&
          std::abs(double_value) < 1e15) {
        os << static_cast<int64_t>(double_value);
      } else {
        os << double_value;
      }
      break;
    case Kind::kIntList:
      for (size_t i = 0; i < list_value.size(); ++i) {
        if (i > 0) os << 'x';
        os << list_value[i];
      }
      break;
  }
  return os.str();
}

bool TunableValue::operator==(const TunableValue& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kInt:
      return int_value == other.int_value;
    case Kind::kDouble:
      return double_value == other.double_value;
    case Kind::kIntList:
      return list_value == other.list_value;
  }
  return false;
}

std::string StrategySpec::ToSpec() const {
  std::string spec = name;
  for (const TunableValue& value : values) {
    const std::string rendered = value.Render();
    // An empty list is "let the strategy choose": nothing to render.
    if (rendered.empty()) continue;
    spec += ':';
    spec += rendered;
  }
  return spec;
}

std::string StrategyCapabilities::ToString() const {
  std::string out;
  const auto add = [&out](const char* flag) {
    if (!out.empty()) out += ',';
    out += flag;
  };
  if (undirected) add("undirected");
  if (labeled) add("labeled");
  if (directed) add("directed");
  if (triangle_only) add("triangle-only");
  if (!emits_instances) add("counting-only");
  return out;
}

// ---------------------------------------------------------------------------
// EnumerationQuery
// ---------------------------------------------------------------------------

EnumerationQuery EnumerationQuery::Undirected(const SampleGraph& pattern,
                                              const Graph& graph) {
  EnumerationQuery query;
  query.pattern = &pattern;
  query.graph = &graph;
  return query;
}

EnumerationQuery EnumerationQuery::Labeled(const LabeledSampleGraph& pattern,
                                           const LabeledGraph& graph) {
  EnumerationQuery query;
  query.labeled_pattern = &pattern;
  query.labeled_graph = &graph;
  return query;
}

EnumerationQuery EnumerationQuery::Directed(const DirectedSampleGraph& pattern,
                                            const DirectedGraph& graph) {
  EnumerationQuery query;
  query.directed_pattern = &pattern;
  query.directed_graph = &graph;
  return query;
}

EnumerationQuery& EnumerationQuery::WithStrategy(std::string_view spec_string) {
  spec = ParseStrategySpec(spec_string);
  return *this;
}

EnumerationQuery& EnumerationQuery::WithSpec(StrategySpec s) {
  spec = std::move(s);
  return *this;
}

EnumerationQuery& EnumerationQuery::WithSeed(uint64_t s) {
  seed = s;
  return *this;
}

EnumerationQuery& EnumerationQuery::WithPolicy(const ExecutionPolicy& p) {
  policy = p;
  return *this;
}

EnumerationQuery& EnumerationQuery::WithSink(InstanceSink* s) {
  sink = s;
  return *this;
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

std::optional<double> Strategy::EstimateCostPerEdge(
    const EnumerationQuery&) const {
  return std::nullopt;
}

StrategySpec Strategy::ResolveSpec(StrategySpec spec) const {
  const std::vector<TunableDecl>& decls = tunables();
  if (spec.values.size() > decls.size()) {
    SpecError("'" + name() + "' takes at most " +
              std::to_string(decls.size()) + " tunable(s), got " +
              std::to_string(spec.values.size()));
  }
  for (size_t i = 0; i < decls.size(); ++i) {
    const TunableDecl& decl = decls[i];
    if (i >= spec.values.size()) {
      spec.values.push_back(decl.default_value);
      continue;
    }
    TunableValue& value = spec.values[i];
    if (value.kind != decl.default_value.kind) {
      SpecError("'" + name() + "' tunable '" + decl.name +
                "' has the wrong type");
    }
    switch (value.kind) {
      case TunableValue::Kind::kInt:
        if (value.int_value < decl.min_int) {
          SpecError("'" + name() + "' needs " + decl.name +
                    " >= " + std::to_string(decl.min_int) + ", got " +
                    value.Render());
        }
        break;
      case TunableValue::Kind::kDouble:
        // The text parser never yields NaN or inf; a built spec can.
        if (!std::isfinite(value.double_value) ||
            value.double_value < decl.min_double) {
          SpecError("'" + name() + "' needs " + decl.name + " >= " +
                    TunableValue::Double(decl.min_double).Render() +
                    ", got " + value.Render());
        }
        break;
      case TunableValue::Kind::kIntList:
        for (const int element : value.list_value) {
          if (element < 1) {
            SpecError("'" + name() + "' needs every " + decl.name +
                      " element >= 1, got " + value.Render());
          }
        }
        break;
    }
  }
  spec.name = name();
  return spec;
}

// ---------------------------------------------------------------------------
// StrategyRegistry
// ---------------------------------------------------------------------------

StrategyRegistry& StrategyRegistry::Global() {
  static StrategyRegistry* registry = [] {
    auto* r = new StrategyRegistry();
    RegisterBuiltinStrategies(*r);
    return r;
  }();
  return *registry;
}

void StrategyRegistry::Register(std::unique_ptr<Strategy> strategy) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string& name = strategy->name();
  if (name.empty()) SpecError("strategy name must be nonempty");
  const auto [it, inserted] =
      strategies_.emplace(name, std::move(strategy));
  (void)it;
  if (!inserted) {
    SpecError("strategy '" + name + "' is already registered");
  }
}

const Strategy* StrategyRegistry::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = strategies_.find(name);
  return it == strategies_.end() ? nullptr : it->second.get();
}

const Strategy& StrategyRegistry::Require(std::string_view name) const {
  const Strategy* strategy = Find(name);
  if (strategy != nullptr) return *strategy;
  std::string known;
  for (const Strategy* s : Strategies()) {
    if (!known.empty()) known += ", ";
    known += s->name();
  }
  SpecError("unknown strategy '" + std::string(name) + "' (known: " + known +
            ")");
}

std::vector<const Strategy*> StrategyRegistry::Strategies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Strategy*> all;
  all.reserve(strategies_.size());
  for (const auto& [name, strategy] : strategies_) {
    all.push_back(strategy.get());
  }
  return all;  // std::map iterates name-sorted.
}

StrategySpec StrategyRegistry::Parse(std::string_view spec_string) const {
  if (spec_string.empty()) SpecError("empty spec");
  const std::vector<std::string> parts = SplitOn(spec_string, ':');
  const Strategy& strategy = Require(parts[0]);
  const std::vector<TunableDecl>& decls = strategy.tunables();
  if (parts.size() - 1 > decls.size()) {
    SpecError("'" + strategy.name() + "' takes at most " +
              std::to_string(decls.size()) + " tunable(s): '" +
              std::string(spec_string) + "'");
  }
  StrategySpec spec;
  spec.name = strategy.name();
  for (size_t i = 1; i < parts.size(); ++i) {
    const TunableDecl& decl = decls[i - 1];
    const std::string& text = parts[i];
    const auto bad = [&]() -> std::string {
      return "'" + strategy.name() + "' tunable '" + decl.name +
             "' got invalid value '" + text + "'";
    };
    switch (decl.default_value.kind) {
      case TunableValue::Kind::kInt: {
        const auto value = ParseInt64(text);
        if (!value) SpecError(bad());
        spec.values.push_back(TunableValue::Int(*value));
        break;
      }
      case TunableValue::Kind::kDouble: {
        const auto value = ParseDouble(text);
        if (!value) SpecError(bad());
        spec.values.push_back(TunableValue::Double(*value));
        break;
      }
      case TunableValue::Kind::kIntList: {
        std::vector<int> elements;
        for (const std::string& element : SplitOn(text, 'x')) {
          const auto value = ParseInt64(element);
          if (!value || *value < std::numeric_limits<int>::min() ||
              *value > std::numeric_limits<int>::max()) {
            SpecError(bad());
          }
          elements.push_back(static_cast<int>(*value));
        }
        spec.values.push_back(TunableValue::IntList(std::move(elements)));
        break;
      }
    }
  }
  return strategy.ResolveSpec(std::move(spec));
}

EnumerationResult StrategyRegistry::Run(const EnumerationQuery& query) const {
  const Strategy& strategy = Require(query.spec.name);
  const StrategyCapabilities& caps = strategy.capabilities();

  const int families = (query.graph != nullptr ? 1 : 0) +
                       (query.labeled_graph != nullptr ? 1 : 0) +
                       (query.directed_graph != nullptr ? 1 : 0);
  if (families != 1) {
    SpecError("query must carry exactly one pattern/graph family (use "
              "EnumerationQuery::Undirected/Labeled/Directed)");
  }
  if (query.graph != nullptr && query.pattern == nullptr) {
    SpecError("undirected query is missing its pattern");
  }
  if (query.labeled_graph != nullptr && query.labeled_pattern == nullptr) {
    SpecError("labeled query is missing its pattern");
  }
  if (query.directed_graph != nullptr && query.directed_pattern == nullptr) {
    SpecError("directed query is missing its pattern");
  }

  if (query.graph != nullptr && !caps.undirected) {
    SpecError("strategy '" + strategy.name() +
              "' does not support undirected queries (capabilities: " +
              caps.ToString() + ")");
  }
  if (query.labeled_graph != nullptr && !caps.labeled) {
    SpecError("strategy '" + strategy.name() +
              "' does not support labeled queries (capabilities: " +
              caps.ToString() + ")");
  }
  if (query.directed_graph != nullptr && !caps.directed) {
    SpecError("strategy '" + strategy.name() +
              "' does not support directed queries (capabilities: " +
              caps.ToString() + ")");
  }
  if (caps.triangle_only && query.pattern != nullptr &&
      (query.pattern->num_vars() != 3 || query.pattern->num_edges() != 3)) {
    SpecError("strategy '" + strategy.name() +
              "' is restricted to the triangle pattern, got " +
              query.pattern->ToString());
  }

  // Map-reduce reducers see only the edges shipped to them, so a data node
  // no edge reaches is never bound; a pattern variable in no edge would
  // silently miss every instance that maps it there.
  if (strategy.name() != "serial") {
    for (int v = 0; v < PatternVars(query); ++v) {
      if (VariableDegree(query, v) > 0) continue;
      SpecError("strategy '" + strategy.name() + "' cannot bind pattern "
                "variable " + std::to_string(v) +
                ", which lies in no pattern edge (reducers see only edges); "
                "use 'serial'");
    }
  }

  EnumerationQuery resolved = query;
  resolved.spec = strategy.ResolveSpec(query.spec);
  EnumerationResult result = strategy.Run(resolved);
  if (result.resolved_spec.name.empty()) {
    result.resolved_spec = resolved.spec;
  }
  return result;
}

StrategySpec ParseStrategySpec(std::string_view spec_string) {
  return StrategyRegistry::Global().Parse(spec_string);
}

}  // namespace smr
