// Plain-text (de)serialization of computational graphs.
//
// A small line-oriented format so graphs can be exported, diffed, and fed to
// the CLI tools without rebuilding the zoo:
//
//   respect-dag 1
//   name <model name>
//   node <id> <type> <param_bytes> <output_bytes> <macs> <op name...>
//   edge <from> <to>
//
// Round-trips exactly (names may contain spaces; they end the line, so a
// name may not contain a newline).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/dag.h"

namespace respect::graph {

/// Writes `dag` to the stream in the format above.  Throws
/// std::invalid_argument, before writing anything, when the DAG name or a
/// node name contains '\n' — the one byte the line framing cannot carry.
void WriteDag(const Dag& dag, std::ostream& os);

/// Parses a graph written by WriteDag.  Throws std::runtime_error on
/// malformed input (wrong header, bad ids, duplicate edges).
[[nodiscard]] Dag ReadDag(std::istream& is);

/// File-path convenience wrappers.
void SaveDag(const Dag& dag, const std::string& path);
[[nodiscard]] Dag LoadDag(const std::string& path);

}  // namespace respect::graph
