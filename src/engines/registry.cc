#include "engines/registry.h"

#include <stdexcept>
#include <string>

#include "engines/builtin.h"

namespace respect::engines {

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterBuiltinEngines(*r);
    return r;
  }();
  return *registry;
}

void EngineRegistry::Register(EngineRegistration registration) {
  if (registration.name.empty()) {
    throw std::invalid_argument("engine registration needs a name");
  }
  if (!registration.factory) {
    throw std::invalid_argument("engine '" + registration.name +
                                "' registered without a factory");
  }
  for (const EngineRegistration& existing : registrations_) {
    const bool name_clash = existing.name == registration.name ||
                            existing.alias == registration.name;
    const bool alias_clash =
        !registration.alias.empty() &&
        (existing.name == registration.alias ||
         existing.alias == registration.alias);
    if (name_clash || alias_clash) {
      throw std::invalid_argument("engine '" + registration.name +
                                  "' collides with registered engine '" +
                                  existing.name + "'");
    }
  }
  registrations_.push_back(std::move(registration));
}

bool EngineRegistry::Contains(std::string_view name_or_alias) const {
  return Find(name_or_alias) != nullptr;
}

const EngineRegistration* EngineRegistry::Find(
    std::string_view name_or_alias) const {
  for (const EngineRegistration& registration : registrations_) {
    // An empty alias is "no alias" — it must not match an empty query.
    if (registration.name == name_or_alias ||
        (!registration.alias.empty() && registration.alias == name_or_alias)) {
      return &registration;
    }
  }
  return nullptr;
}

const EngineRegistration& EngineRegistry::Resolve(
    std::string_view name_or_alias) const {
  if (name_or_alias.empty()) {
    throw std::invalid_argument(
        "no engine specified (set a canonical name or CLI alias)");
  }
  const EngineRegistration* registration = Find(name_or_alias);
  if (registration == nullptr) {
    throw std::invalid_argument("unknown scheduling engine '" +
                                std::string(name_or_alias) + "'");
  }
  return *registration;
}

std::unique_ptr<SchedulerEngine> EngineRegistry::Create(
    const EngineRegistration& registration, const EngineContext& context) {
  std::unique_ptr<SchedulerEngine> engine = registration.factory(context);
  if (engine == nullptr) {
    throw std::runtime_error("factory of engine '" + registration.name +
                             "' returned null");
  }
  return engine;
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(registrations_.size());
  for (const EngineRegistration& registration : registrations_) {
    names.push_back(registration.name);
  }
  return names;
}

}  // namespace respect::engines
