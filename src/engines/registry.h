// Engine registry — the single description of every scheduling engine: its
// canonical name, its CLI alias, its capabilities and its factory.
//
// Built-in engines are registered the first time Global() is called; user
// code may register additional engines at startup:
//
//   engines::EngineRegistry::Global().Register({
//       .name = "MyEngine", .alias = "mine", .description = "...",
//       .factory = [](const engines::EngineContext&) { ... }});
//   auto result = compiler.Compile(dag, 4, "MyEngine");
//
// Registration is not synchronized: register engines during startup, before
// handing the registry to concurrent compile paths.  Lookups are const and
// safe to run concurrently once registration is done.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine.h"

namespace respect::engines {

using EngineFactory =
    std::function<std::unique_ptr<SchedulerEngine>(const EngineContext&)>;

/// One registry entry.  `name` is the canonical spelling (what responses,
/// cache keys, breakers and failpoint tags use); `alias` is the short CLI
/// spelling.  Either one selects the engine.
struct EngineRegistration {
  std::string name;
  std::string alias;
  std::string description;
  EngineFactory factory;

  /// True when the engine reads EngineContext::rl — i.e. its output depends
  /// on the current RL weight snapshot.  The serving layer keys its schedule
  /// cache on the snapshot version for exactly these engines, so ReplaceRl
  /// invalidates their cached results while deterministic engines stay warm.
  bool uses_rl = false;

  /// True when the engine's ScheduleBatch lock-steps same-node-count graphs
  /// (RlEngine's batched decode).  Callers size-group a batch, and the
  /// serving layer groups cold misses, only for these engines.
  bool supports_batch = false;
};

class EngineRegistry {
 public:
  /// The process-wide registry, with the built-in engines pre-registered.
  static EngineRegistry& Global();

  /// Adds an engine.  Throws std::invalid_argument when the name or alias
  /// collides with an existing entry, when the factory is empty, or when the
  /// name is empty.
  void Register(EngineRegistration registration);

  [[nodiscard]] bool Contains(std::string_view name_or_alias) const;

  /// Finds by canonical name or alias (exact match); null when absent.  The
  /// entry stays valid for the process lifetime (entries are never
  /// relocated or removed).
  [[nodiscard]] const EngineRegistration* Find(
      std::string_view name_or_alias) const;

  /// Find that throws std::invalid_argument (naming the caller's spelling)
  /// when the name is empty or unknown.
  [[nodiscard]] const EngineRegistration& Resolve(
      std::string_view name_or_alias) const;

  /// Instantiates the engine `registration` describes.  Throws
  /// std::runtime_error when its factory returns null.
  [[nodiscard]] static std::unique_ptr<SchedulerEngine> Create(
      const EngineRegistration& registration, const EngineContext& context);

  /// All entries, in registration order (built-ins first).
  [[nodiscard]] const std::deque<EngineRegistration>& Registrations() const {
    return registrations_;
  }

  /// Canonical names, in registration order.
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  // Deque, not vector: Register() must never relocate existing entries, so
  // pointers from Find() and views of their names stay valid across later
  // registrations.
  std::deque<EngineRegistration> registrations_;
};

}  // namespace respect::engines
