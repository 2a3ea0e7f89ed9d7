// Generator tests: a run's inputs are a pure function of its seed, and the
// streams have the shape the benchmark declares.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "bench.h"
#include "gen.h"
#include "snapshot/snapshot.h"
#include "util/json.h"

namespace perfbench {
namespace {

std::vector<std::string> Texts(const std::vector<Query>& queries) {
  std::vector<std::string> out;
  for (const Query& q : queries) out.push_back(q.text);
  return out;
}

struct Streams {
  uint64_t fingerprint;
  std::vector<std::string> cold, light, readers;
  std::vector<uint32_t> zipf;
  std::vector<std::string> batches;
};

Streams Generate(uint64_t seed) {
  banks::DblpDataset ds = banks::GenerateDblp(DatasetConfig(seed));
  QueryGen queries(ds, seed);
  MutationGen writer(ds, seed);
  Streams s;
  s.fingerprint = banks::snapshot::DatabaseFingerprint(ds.db);
  s.cold = Texts(queries.Cold(200));
  s.light = Texts(queries.Light(kHotSetSize));
  s.readers = Texts(writer.ReaderQueries(kReaderSetSize));
  s.zipf = ZipfStream(kHotSetSize, 1000, seed);
  for (size_t b = 0; b < 4; ++b) s.batches.push_back(writer.Make(b).body);
  return s;
}

class GenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    a_ = std::make_unique<Streams>(Generate(11));
    b_ = std::make_unique<Streams>(Generate(11));
    c_ = std::make_unique<Streams>(Generate(12));
  }
  static void TearDownTestSuite() {
    a_.reset();
    b_.reset();
    c_.reset();
  }
  static std::unique_ptr<Streams> a_, b_, c_;
};
std::unique_ptr<Streams> GenTest::a_, GenTest::b_, GenTest::c_;

TEST_F(GenTest, SameSeedGivesIdenticalInputs) {
  EXPECT_EQ(a_->fingerprint, b_->fingerprint);
  EXPECT_EQ(a_->cold, b_->cold);
  EXPECT_EQ(a_->light, b_->light);
  EXPECT_EQ(a_->readers, b_->readers);
  EXPECT_EQ(a_->zipf, b_->zipf);
  EXPECT_EQ(a_->batches, b_->batches);
}

TEST_F(GenTest, DifferentSeedGivesDifferentInputs) {
  EXPECT_NE(a_->fingerprint, c_->fingerprint);
  EXPECT_NE(a_->cold, c_->cold);
  EXPECT_NE(a_->light, c_->light);
  EXPECT_NE(a_->readers, c_->readers);
  EXPECT_NE(a_->zipf, c_->zipf);
  EXPECT_NE(a_->batches, c_->batches);
}

TEST(GenShapeTest, ColdFormSharesMatchTheDeclaredMix) {
  banks::DblpDataset ds = banks::GenerateDblp(DatasetConfig(5));
  QueryGen queries(ds, 5);
  const size_t n = 20 * kBlock;
  std::vector<Query> cold = queries.Cold(n);
  ASSERT_EQ(cold.size(), n);
  size_t per_form[kNumForms] = {};
  std::set<std::string> distinct;
  for (const Query& q : cold) {
    ++per_form[int(q.form)];
    distinct.insert(q.text);
  }
  EXPECT_EQ(distinct.size(), n);  // every cold query is distinct
  const size_t blocks = n / kBlock;
  EXPECT_EQ(per_form[int(Form::kHeavy)], blocks * kHeavyPerBlock);
  EXPECT_EQ(per_form[int(Form::kPlantedTitle)], blocks * kPlantedPerBlock);
  const size_t light = blocks * kLightPerBlock;
  for (Form f : {Form::kCoauthors, Form::kAuthorTitle, Form::kTitleWords}) {
    EXPECT_NEAR(double(per_form[int(f)]), double(light) / 3, 1.0)
        << FormName(f);
  }
}

TEST(GenShapeTest, HotSetAndReaderSetHaveTheDeclaredSizes) {
  banks::DblpDataset ds = banks::GenerateDblp(DatasetConfig(6));
  QueryGen queries(ds, 6);
  std::vector<Query> hot = queries.Light(kHotSetSize);
  EXPECT_EQ(hot.size(), kHotSetSize);
  const std::vector<std::string> texts = Texts(hot);
  EXPECT_EQ(std::set<std::string>(texts.begin(), texts.end()).size(),
            kHotSetSize);
  for (const Query& q : hot) EXPECT_NE(q.form, Form::kHeavy);
  for (uint32_t z : ZipfStream(kHotSetSize, 5000, 6)) {
    EXPECT_LT(z, kHotSetSize);
  }
  MutationGen writer(ds, 6);
  EXPECT_EQ(writer.ReaderQueries(kReaderSetSize).size(), kReaderSetSize);
}

TEST(GenShapeTest, BatchesHaveTheDeclaredSizeAndParse) {
  banks::DblpDataset ds = banks::GenerateDblp(DatasetConfig(8));
  MutationGen writer(ds, 8);
  for (size_t b = 0; b < 4; ++b) {
    Batch batch = writer.Make(b);
    EXPECT_EQ(batch.mutations.size(), MutationGen::kBatchSize);
    auto json = banks::JsonValue::Parse(batch.body);
    ASSERT_TRUE(json.ok());
    EXPECT_EQ(json.value().Find("mutations")->items().size(),
              MutationGen::kBatchSize);
  }
}

TEST(GenShapeTest, WorkloadInputsAreSizedFromTheirConstants) {
  const std::string dir = ::testing::TempDir() + "perfbench_gen_test";
  for (const char* name : {"cold", "hot", "ingest"}) {
    Spec spec;
    ASSERT_TRUE(SpecFor(name, 4, &spec));
    Inputs in;
    std::string error;
    ASSERT_TRUE(MakeInputs(spec, 3, 15, dir, &in, &error)) << error;
    if (spec.name == "cold") {
      // 4 rounds at 24 req/s over 15 s: 90 queries, rounded up to whole
      // blocks.
      EXPECT_EQ(in.timed.size(), PerRound(spec, 15));
      EXPECT_EQ(in.timed.size(), 100u);
    } else if (spec.name == "hot") {
      EXPECT_EQ(in.set.size(), kHotSetSize);
      EXPECT_EQ(in.zipf.size(), PerRound(spec, 15));
      EXPECT_EQ(in.zipf.size(), 6000u);
    } else {
      EXPECT_EQ(in.set.size(), kReaderSetSize);
      EXPECT_GE(in.zipf.size(), static_cast<size_t>(std::ceil(
                                    spec.open_rate * 15 * kOpenShare)));
    }
    EXPECT_FALSE(in.batches.empty());
  }
}

TEST(GenShapeTest, ThreadBudgetFitsFourHardwareThreads) {
  for (const char* name : {"cold", "hot", "ingest"}) {
    Spec spec;
    ASSERT_TRUE(SpecFor(name, 4, &spec));
    EXPECT_EQ(spec.pool_workers, 2u);
    EXPECT_LE(kReaders + kWriters, 4u);
    EXPECT_LE(spec.pool_workers + kWriters, 4u);
  }
}

}  // namespace
}  // namespace perfbench
