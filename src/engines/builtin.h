// Registration of the eight engines that ship with the library.
#pragma once

namespace respect::engines {

class EngineRegistry;

/// Registers the eight built-in engines — the paper's RESPECT agent, the
/// exact ILP, the Edge TPU compiler substitute and five classic heuristics —
/// each under its canonical name and CLI alias.  Called once by
/// EngineRegistry::Global(); call it yourself only on a private registry.
void RegisterBuiltinEngines(EngineRegistry& registry);

}  // namespace respect::engines
