// Extension subsystems: Class-IL stream, CSV writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "data/stream.h"
#include "metrics/csv.h"
#include "util/tmp_path.h"

namespace cham {
namespace {

// ------------------------------------------------------------- Class-IL

data::DatasetConfig tiny_data() {
  auto cfg = data::core50_config();
  cfg.num_classes = 12;
  cfg.num_domains = 3;
  cfg.train_instances = 4;
  return cfg;
}

TEST(ClassIncrementalStream, TasksPartitionClasses) {
  data::ClassIncrementalConfig cc;
  cc.classes_per_task = 4;
  data::ClassIncrementalStream stream(tiny_data(), cc);
  EXPECT_EQ(stream.num_tasks(), 3);
  std::set<int64_t> all;
  for (int64_t t = 0; t < stream.num_tasks(); ++t) {
    for (int64_t c : stream.task_classes(t)) {
      EXPECT_TRUE(all.insert(c).second) << "class in two tasks";
    }
  }
  EXPECT_EQ(all.size(), 12u);
}

TEST(ClassIncrementalStream, BatchesOnlyContainTaskClasses) {
  data::ClassIncrementalConfig cc;
  cc.classes_per_task = 6;
  data::ClassIncrementalStream stream(tiny_data(), cc);
  for (const auto& b : stream.batches()) {
    const auto& classes = stream.task_classes(b.domain);
    std::set<int64_t> allowed(classes.begin(), classes.end());
    for (int64_t y : b.labels) EXPECT_TRUE(allowed.count(y));
  }
}

TEST(ClassIncrementalStream, TasksArriveInOrder) {
  data::ClassIncrementalConfig cc;
  cc.classes_per_task = 4;
  data::ClassIncrementalStream stream(tiny_data(), cc);
  int64_t last = 0;
  for (const auto& b : stream.batches()) {
    EXPECT_GE(b.domain, last);
    last = b.domain;
  }
  EXPECT_EQ(last, stream.num_tasks() - 1);
}

TEST(ClassIncrementalStream, UnevenLastTask) {
  auto dc = tiny_data();
  dc.num_classes = 10;
  data::ClassIncrementalConfig cc;
  cc.classes_per_task = 4;
  data::ClassIncrementalStream stream(dc, cc);
  EXPECT_EQ(stream.num_tasks(), 3);
  EXPECT_EQ(stream.task_classes(2).size(), 2u);
}

// ------------------------------------------------------------------ CSV

TEST(Csv, QuotesSpecialCharacters) {
  metrics::CsvWriter w({"name", "note"});
  w.append_row({std::string("a,b"), std::string("say \"hi\"")});
  const std::string out = w.to_string();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, NumericRows) {
  metrics::CsvWriter w({"x", "y"});
  w.append_row(std::vector<double>{1.5, 2.25}, 2);
  EXPECT_NE(w.to_string().find("1.50,2.25"), std::string::npos);
  EXPECT_EQ(w.row_count(), 2);
}

TEST(Csv, WritesFile) {
  metrics::CsvWriter w({"a"});
  w.append_row({std::string("1")});
  const std::string path = util::tmp_path("test_csv");
  ASSERT_TRUE(w.write(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cham
