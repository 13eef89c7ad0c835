// Unit tests for the EET heterogeneity model (hetero/eet_matrix.hpp).
#include "hetero/eet_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using e2c::hetero::EetMatrix;

EetMatrix sample_matrix() {
  return EetMatrix({"T1", "T2"}, {"cpu", "gpu", "fpga"},
                   {{4.0, 1.0, 2.0}, {3.0, 6.0, 1.5}});
}

TEST(EetMatrix, AccessorsAndNames) {
  const EetMatrix eet = sample_matrix();
  EXPECT_EQ(eet.task_type_count(), 2u);
  EXPECT_EQ(eet.machine_type_count(), 3u);
  EXPECT_DOUBLE_EQ(eet.eet(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(eet.eet(1, 2), 1.5);
  EXPECT_EQ(eet.task_type_name(1), "T2");
  EXPECT_EQ(eet.machine_type_name(0), "cpu");
  EXPECT_EQ(eet.task_type_index("T2"), 1u);
  EXPECT_EQ(eet.machine_type_index("fpga"), 2u);
  EXPECT_TRUE(eet.has_task_type("T1"));
  EXPECT_FALSE(eet.has_task_type("T9"));
}

TEST(EetMatrix, UnknownNamesThrow) {
  const EetMatrix eet = sample_matrix();
  EXPECT_THROW((void)eet.task_type_index("nope"), e2c::InputError);
  EXPECT_THROW((void)eet.machine_type_index("nope"), e2c::InputError);
  EXPECT_THROW((void)eet.eet(5, 0), e2c::InputError);
  EXPECT_THROW((void)eet.eet(0, 5), e2c::InputError);
}

TEST(EetMatrix, ValidationRejectsBadShapes) {
  EXPECT_THROW(EetMatrix({"T1"}, {"m1"}, {{1.0, 2.0}}), e2c::InputError);  // extra col
  EXPECT_THROW(EetMatrix({"T1", "T2"}, {"m1"}, {{1.0}}), e2c::InputError); // missing row
  EXPECT_THROW(EetMatrix({}, {"m1"}, {}), e2c::InputError);                // no tasks
  EXPECT_THROW(EetMatrix({"T1"}, {}, {{}}), e2c::InputError);              // no machines
}

TEST(EetMatrix, ValidationRejectsNonPositiveEntries) {
  EXPECT_THROW(EetMatrix({"T1"}, {"m1"}, {{0.0}}), e2c::InputError);
  EXPECT_THROW(EetMatrix({"T1"}, {"m1"}, {{-3.0}}), e2c::InputError);
}

TEST(EetMatrix, ValidationRejectsDuplicateNames) {
  EXPECT_THROW(EetMatrix({"T1", "T1"}, {"m1"}, {{1.0}, {2.0}}), e2c::InputError);
  EXPECT_THROW(EetMatrix({"T1"}, {"m1", "m1"}, {{1.0, 2.0}}), e2c::InputError);
}

TEST(EetMatrix, SetEetEditsInPlace) {
  EetMatrix eet = sample_matrix();
  eet.set_eet(0, 0, 9.5);
  EXPECT_DOUBLE_EQ(eet.eet(0, 0), 9.5);
  EXPECT_THROW(eet.set_eet(0, 0, 0.0), e2c::InputError);
  EXPECT_THROW(eet.set_eet(9, 0, 1.0), e2c::InputError);
}

TEST(EetMatrix, RowStatistics) {
  const EetMatrix eet = sample_matrix();
  EXPECT_NEAR(eet.row_mean(0), (4.0 + 1.0 + 2.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(eet.row_min(0), 1.0);
  EXPECT_DOUBLE_EQ(eet.row_min(1), 1.5);
}

TEST(EetMatrix, HomogeneousDetection) {
  const EetMatrix homog =
      EetMatrix::homogeneous({"T1", "T2"}, {"m1", "m2"}, {3.0, 5.0});
  EXPECT_TRUE(homog.is_homogeneous());
  EXPECT_TRUE(homog.is_consistent());
  EXPECT_FALSE(sample_matrix().is_homogeneous());
}

TEST(EetMatrix, ConsistencyDetection) {
  // Consistent: machine 2 always fastest, machine 1 always slowest.
  const EetMatrix consistent({"T1", "T2"}, {"m1", "m2"},
                             {{4.0, 2.0}, {8.0, 4.0}});
  EXPECT_TRUE(consistent.is_consistent());
  // Inconsistent: each machine wins for one task type (GPU vs FPGA style).
  EXPECT_FALSE(sample_matrix().is_consistent());
}

TEST(EetMatrix, CsvRoundTrip) {
  const EetMatrix original = sample_matrix();
  const EetMatrix parsed = EetMatrix::from_csv_text(original.to_csv_text());
  EXPECT_EQ(parsed.task_type_names(), original.task_type_names());
  EXPECT_EQ(parsed.machine_type_names(), original.machine_type_names());
  for (std::size_t r = 0; r < original.task_type_count(); ++r) {
    for (std::size_t c = 0; c < original.machine_type_count(); ++c) {
      EXPECT_NEAR(parsed.eet(r, c), original.eet(r, c), 1e-4);
    }
  }
}

TEST(EetMatrix, FromCsvTextParsesHeader) {
  const EetMatrix eet =
      EetMatrix::from_csv_text("task_type,m1,m2\nT1, 2.5 ,3\nT2,4,5.5\n");
  EXPECT_EQ(eet.machine_type_name(0), "m1");
  EXPECT_DOUBLE_EQ(eet.eet(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(eet.eet(1, 1), 5.5);
}

TEST(EetMatrix, FromCsvRejectsMalformed) {
  EXPECT_THROW((void)EetMatrix::from_csv_text(""), e2c::InputError);
  EXPECT_THROW((void)EetMatrix::from_csv_text("task_type,m1\n"), e2c::InputError);
  EXPECT_THROW((void)EetMatrix::from_csv_text("task_type,m1\nT1,abc\n"), e2c::InputError);
  EXPECT_THROW((void)EetMatrix::from_csv_text("task_type,m1\nT1,1,2\n"), e2c::InputError);
}

TEST(EetMatrix, FromCsvRowErrorsNameTheLine) {
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)EetMatrix::from_csv_text(text);
    } catch (const e2c::InputError& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_EQ(error_of("task_type,m1,m2\nT1,1,2\nT2,3\n"),
            "EET CSV: wrong field count at line 3");
  EXPECT_EQ(error_of("task_type,m1,m2\nT1,1,2\nT2,3,fast\n"),
            "EET CSV: non-numeric entry 'fast' at line 3");
}

TEST(EetMatrix, SaveAndLoadFile) {
  const std::string path = testing::TempDir() + "/e2c_eet_test.csv";
  sample_matrix().save_csv(path);
  const EetMatrix loaded = EetMatrix::load_csv(path);
  EXPECT_DOUBLE_EQ(loaded.eet(1, 0), 3.0);
  std::remove(path.c_str());
}

TEST(EetMatrix, RandomConsistentGeneration) {
  e2c::util::Rng rng(5);
  const EetMatrix eet = EetMatrix::random({"T1", "T2", "T3"}, {"m1", "m2", "m3", "m4"},
                                          2.0, 10.0, 10.0, /*inconsistent=*/false, rng);
  EXPECT_TRUE(eet.is_consistent());
  EXPECT_FALSE(eet.is_homogeneous());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_GT(eet.eet(r, c), 0.0);
  }
}

TEST(EetMatrix, RandomInconsistentGenerationUsuallyInconsistent) {
  // With 5x5 and wide ranges, per-cell machine weights almost surely break
  // consistency; assert over a few seeds to avoid flakiness.
  int inconsistent_count = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    e2c::util::Rng rng(seed);
    const EetMatrix eet =
        EetMatrix::random({"T1", "T2", "T3", "T4", "T5"}, {"m1", "m2", "m3", "m4", "m5"},
                          1.0, 20.0, 20.0, /*inconsistent=*/true, rng);
    if (!eet.is_consistent()) ++inconsistent_count;
  }
  EXPECT_GE(inconsistent_count, 4);
}

TEST(EetMatrix, RandomRejectsBadParameters) {
  e2c::util::Rng rng(1);
  EXPECT_THROW((void)EetMatrix::random({"T1"}, {"m1"}, 0.0, 2.0, 2.0, false, rng),
               e2c::InputError);
  EXPECT_THROW((void)EetMatrix::random({"T1"}, {"m1"}, 1.0, 0.5, 2.0, false, rng),
               e2c::InputError);
}

TEST(EetMatrix, HomogeneousRequiresOneTimePerType) {
  EXPECT_THROW((void)EetMatrix::homogeneous({"T1", "T2"}, {"m1"}, {1.0}), e2c::InputError);
}

}  // namespace
