// Graph text-serialization round trips and error handling.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>

#include "graph/sampler.h"
#include "graph/serialize.h"
#include "models/zoo.h"

namespace respect::graph {
namespace {

void ExpectDagsEqual(const Dag& a, const Dag& b) {
  ASSERT_EQ(a.NodeCount(), b.NodeCount());
  ASSERT_EQ(a.EdgeCount(), b.EdgeCount());
  EXPECT_EQ(a.Name(), b.Name());
  for (NodeId v = 0; v < a.NodeCount(); ++v) {
    EXPECT_EQ(a.Attr(v).name, b.Attr(v).name);
    EXPECT_EQ(a.Attr(v).type, b.Attr(v).type);
    EXPECT_EQ(a.Attr(v).param_bytes, b.Attr(v).param_bytes);
    EXPECT_EQ(a.Attr(v).output_bytes, b.Attr(v).output_bytes);
    EXPECT_EQ(a.Attr(v).macs, b.Attr(v).macs);
  }
  for (int i = 0; i < a.EdgeCount(); ++i) {
    EXPECT_EQ(a.Edges()[i], b.Edges()[i]);
  }
}

TEST(SerializeTest, RoundTripsSampledGraph) {
  std::mt19937_64 rng(1);
  const Dag dag = SampleTrainingDag(30, rng);
  std::stringstream ss;
  WriteDag(dag, ss);
  ExpectDagsEqual(dag, ReadDag(ss));
}

TEST(SerializeTest, RoundTripsRealModel) {
  const Dag dag = models::BuildModel(models::ModelName::kXception);
  std::stringstream ss;
  WriteDag(dag, ss);
  ExpectDagsEqual(dag, ReadDag(ss));
}

TEST(SerializeTest, RoundTripsThroughFile) {
  const std::string path = "/tmp/respect_dag_test.txt";
  std::mt19937_64 rng(2);
  const Dag dag = SampleTrainingDag(20, rng);
  SaveDag(dag, path);
  ExpectDagsEqual(dag, LoadDag(path));
  std::filesystem::remove(path);
}

TEST(SerializeTest, PreservesNamesWithSpaces) {
  Dag dag("my model v2");
  OpAttr attr;
  attr.name = "conv 1 / branch a";
  dag.AddNode(std::move(attr));
  dag.AddNode({});
  dag.AddEdge(0, 1);
  std::stringstream ss;
  WriteDag(dag, ss);
  const Dag loaded = ReadDag(ss);
  EXPECT_EQ(loaded.Name(), "my model v2");
  EXPECT_EQ(loaded.Attr(0).name, "conv 1 / branch a");
}

TEST(SerializeTest, RefusesNewlinesInNames) {
  // A name runs to the end of its line, so a newline inside one would forge
  // a record; WriteDag refuses both name kinds before writing a byte.
  Dag named("model\nedge 1 0");
  named.AddNode({});
  named.AddNode({});
  std::stringstream dag_name;
  EXPECT_THROW(WriteDag(named, dag_name), std::invalid_argument);
  EXPECT_TRUE(dag_name.str().empty());

  Dag node_named("model");
  OpAttr attr;
  attr.name = "n0\nedge 1 0";
  node_named.AddNode(std::move(attr));
  node_named.AddNode({});
  std::stringstream node_name;
  EXPECT_THROW(WriteDag(node_named, node_name), std::invalid_argument);
  EXPECT_TRUE(node_name.str().empty());
}

TEST(SerializeTest, RejectsBadHeader) {
  std::stringstream ss("not-a-dag 1\n");
  EXPECT_THROW(ReadDag(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsOutOfOrderNodeIds) {
  std::stringstream ss(
      "respect-dag 1\nname x\nnode 1 Conv2D 0 0 0 a\n");
  EXPECT_THROW(ReadDag(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsUnknownRecord) {
  std::stringstream ss("respect-dag 1\nblob 1 2 3\n");
  EXPECT_THROW(ReadDag(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsDanglingEdge) {
  std::stringstream ss(
      "respect-dag 1\nnode 0 Conv2D 1 1 1 a\nedge 0 7\n");
  EXPECT_THROW(ReadDag(ss), std::invalid_argument);
}

TEST(SerializeTest, RejectsCyclicInput) {
  std::stringstream ss(
      "respect-dag 1\n"
      "node 0 Conv2D 1 1 1 a\nnode 1 Conv2D 1 1 1 b\n"
      "edge 0 1\nedge 1 0\n");
  EXPECT_THROW(ReadDag(ss), std::logic_error);
}

}  // namespace
}  // namespace respect::graph
