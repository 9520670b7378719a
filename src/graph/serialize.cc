#include "graph/serialize.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace respect::graph {
namespace {

constexpr int kFormatVersion = 1;

const std::unordered_map<std::string, OpType>& TypeByName() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string, OpType>;
    for (const OpType t :
         {OpType::kInput, OpType::kConv2D, OpType::kDepthwiseConv2D,
          OpType::kSeparableConv2D, OpType::kDense, OpType::kBatchNorm,
          OpType::kRelu, OpType::kAdd, OpType::kConcat, OpType::kMaxPool,
          OpType::kAvgPool, OpType::kGlobalPool, OpType::kSoftmax,
          OpType::kPad, OpType::kGeneric}) {
      m->emplace(std::string(OpTypeName(t)), t);
    }
    return m;
  }();
  return *map;
}

}  // namespace

void WriteDag(const Dag& dag, std::ostream& os) {
  // Names run to the end of their line, so a newline inside one would forge
  // a record — and HashDag, which hashes this stream, would give two
  // different DAGs one key.  Reject before writing a byte.
  const auto check_name = [](const std::string& name, const char* what) {
    if (name.find('\n') != std::string::npos) {
      throw std::invalid_argument(std::string("WriteDag: ") + what +
                                  " contains a newline: '" + name + "'");
    }
  };
  check_name(dag.Name(), "DAG name");
  for (NodeId v = 0; v < dag.NodeCount(); ++v) {
    check_name(dag.Attr(v).name, "node name");
  }
  os << "respect-dag " << kFormatVersion << "\n";
  os << "name " << dag.Name() << "\n";
  for (NodeId v = 0; v < dag.NodeCount(); ++v) {
    const OpAttr& a = dag.Attr(v);
    os << "node " << v << " " << OpTypeName(a.type) << " " << a.param_bytes
       << " " << a.output_bytes << " " << a.macs << " " << a.name << "\n";
  }
  for (const Edge& e : dag.Edges()) {
    os << "edge " << e.from << " " << e.to << "\n";
  }
}

Dag ReadDag(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) ||
      line != "respect-dag " + std::to_string(kFormatVersion)) {
    throw std::runtime_error("ReadDag: bad header: '" + line + "'");
  }
  Dag dag;
  int expected_next_id = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "name") {
      std::string name;
      std::getline(ls, name);
      if (!name.empty() && name.front() == ' ') name.erase(0, 1);
      dag.SetName(name);
    } else if (kind == "node") {
      int id = -1;
      std::string type_name;
      OpAttr attr;
      ls >> id >> type_name >> attr.param_bytes >> attr.output_bytes >>
          attr.macs;
      const bool fields_ok = !ls.fail();
      std::getline(ls, attr.name);
      if (!attr.name.empty() && attr.name.front() == ' ') {
        attr.name.erase(0, 1);
      }
      const auto it = TypeByName().find(type_name);
      if (!fields_ok || id != expected_next_id || it == TypeByName().end()) {
        throw std::runtime_error("ReadDag: malformed node line: '" + line +
                                 "'");
      }
      attr.type = it->second;
      dag.AddNode(std::move(attr));
      ++expected_next_id;
    } else if (kind == "edge") {
      NodeId from = kInvalidNode, to = kInvalidNode;
      ls >> from >> to;
      if (ls.fail()) {
        throw std::runtime_error("ReadDag: malformed edge line: '" + line +
                                 "'");
      }
      dag.AddEdge(from, to);  // range/duplicate checks inside
    } else {
      throw std::runtime_error("ReadDag: unknown record '" + kind + "'");
    }
  }
  dag.Validate();
  return dag;
}

void SaveDag(const Dag& dag, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("SaveDag: cannot open " + path);
  WriteDag(dag, os);
  if (!os) throw std::runtime_error("SaveDag: write failed: " + path);
}

Dag LoadDag(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("LoadDag: cannot open " + path);
  return ReadDag(is);
}

}  // namespace respect::graph
