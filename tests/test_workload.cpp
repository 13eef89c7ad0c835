// Unit tests for the workload trace container + CSV IO (workload/workload.hpp).
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "util/error.hpp"

namespace {

using e2c::hetero::EetMatrix;
using e2c::workload::TaskDef;
using e2c::workload::Workload;

EetMatrix sample_eet() {
  return EetMatrix({"T1", "T2"}, {"m1", "m2"}, {{2.0, 4.0}, {3.0, 1.0}});
}

TaskDef make_task(std::uint64_t id, std::size_t type, double arrival, double deadline) {
  TaskDef task;
  task.id = id;
  task.type = static_cast<std::uint32_t>(type);
  task.arrival = arrival;
  task.deadline = deadline;
  return task;
}

/// The InputError message \p fn throws ("" when it does not throw), so the
/// tests pin the exact text and locators, not only the exception type.
std::string input_error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const e2c::InputError& error) {
    return error.what();
  }
  return "";
}

std::string csv_error(const std::string& text) {
  return input_error_of([&] { (void)Workload::from_csv_text(text, sample_eet()); });
}

TEST(Workload, SortsByArrival) {
  Workload workload({make_task(1, 0, 5.0, 10.0), make_task(2, 1, 1.0, 9.0),
                     make_task(3, 0, 3.0, 8.0)});
  ASSERT_EQ(workload.size(), 3u);
  EXPECT_EQ(workload.tasks()[0].id, 2u);
  EXPECT_EQ(workload.tasks()[1].id, 3u);
  EXPECT_EQ(workload.tasks()[2].id, 1u);
  EXPECT_DOUBLE_EQ(workload.last_arrival(), 5.0);
}

TEST(Workload, TieBrokenById) {
  Workload workload({make_task(9, 0, 2.0, 10.0), make_task(4, 0, 2.0, 10.0)});
  EXPECT_EQ(workload.tasks()[0].id, 4u);
}

TEST(Workload, SortedInputWithLastRowOutOfOrderComesOutSorted) {
  std::vector<TaskDef> defs;
  for (std::uint64_t id = 0; id < 8; ++id) {
    defs.push_back(make_task(id, 0, 1.0 + static_cast<double>(id), 20.0));
  }
  defs.push_back(make_task(8, 1, 0.5, 20.0));  // earliest arrival, listed last
  const Workload workload(std::move(defs));
  ASSERT_EQ(workload.size(), 9u);
  EXPECT_EQ(workload.tasks()[0].id, 8u);
  for (std::size_t i = 1; i < workload.size(); ++i) {
    EXPECT_EQ(workload.tasks()[i].id, i - 1);
    EXPECT_LT(workload.tasks()[i - 1].arrival, workload.tasks()[i].arrival);
  }
}

TEST(Workload, SortedInputWithEqualArrivalsIsUnchanged) {
  const std::vector<TaskDef> defs = {make_task(3, 0, 1.0, 9.0), make_task(5, 1, 1.0, 8.0),
                                     make_task(9, 0, 1.0, 7.0), make_task(2, 1, 2.0, 6.0),
                                     make_task(4, 0, 2.0, 5.0)};
  const Workload workload(defs);
  ASSERT_EQ(workload.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    EXPECT_EQ(workload.tasks()[i].id, defs[i].id);
    EXPECT_EQ(workload.tasks()[i].type, defs[i].type);
    EXPECT_EQ(workload.tasks()[i].arrival, defs[i].arrival);
    EXPECT_EQ(workload.tasks()[i].deadline, defs[i].deadline);
  }
}

TEST(Workload, RejectsDeadlineBeforeArrival) {
  EXPECT_EQ(input_error_of([] { Workload({make_task(1, 0, 5.0, 4.0)}); }),
            "workload: task 1 has a deadline before its arrival");
  // The offender is named even behind valid tasks that need sorting.
  EXPECT_EQ(input_error_of([] {
              Workload({make_task(2, 0, 3.0, 9.0), make_task(7, 0, 6.0, 5.5),
                        make_task(0, 0, 1.0, 4.0)});
            }),
            "workload: task 7 has a deadline before its arrival");
}

TEST(Workload, RejectsNegativeArrival) {
  EXPECT_EQ(input_error_of([] { Workload({make_task(1, 0, -1.0, 4.0)}); }),
            "workload: task 1 has a negative arrival time");
}

TEST(Workload, UnsortedInvalidTraceNamesFirstOffenderInArrivalOrder) {
  // Input order would name task 4 first; arrival order puts task 2 ahead.
  EXPECT_EQ(input_error_of([] {
              Workload({make_task(4, 0, 6.0, 5.0), make_task(1, 0, 2.0, 9.0),
                        make_task(2, 0, -1.0, 3.0)});
            }),
            "workload: task 2 has a negative arrival time");
  // A record that breaks both rules is reported for its deadline.
  EXPECT_EQ(input_error_of([] {
              Workload({make_task(5, 0, 1.0, 8.0), make_task(3, 0, -2.0, -3.0)});
            }),
            "workload: task 3 has a deadline before its arrival");
}

TEST(Workload, DenseIdsMeansRowIEqualsIdI) {
  const EetMatrix eet = sample_eet();
  const auto from_csv = [&eet](const std::string& rows) {
    return Workload::from_csv_text("task_id,task_type,arrival_time\n" + rows, eet);
  };
  EXPECT_TRUE(from_csv("0,T1,0.5\n1,T2,1.0\n2,T1,1.0\n").dense_ids());
  EXPECT_FALSE(from_csv("0,T1,0.5\n2,T2,1.0\n").dense_ids());    // gapped
  EXPECT_FALSE(from_csv("1,T1,0.5\n0,T2,1.0\n").dense_ids());    // reordered
  EXPECT_FALSE(from_csv("1,T1,0.5\n2,T2,1.0\n").dense_ids());    // not from 0
  // Out-of-order input is judged after sorting.
  EXPECT_TRUE(Workload({make_task(1, 0, 2.0, 9.0), make_task(0, 1, 1.0, 9.0)}).dense_ids());
  EXPECT_TRUE(Workload().dense_ids());
}

TEST(Workload, ValidateAgainstEnforcesEetCompatibility) {
  const EetMatrix eet = sample_eet();
  Workload ok({make_task(1, 1, 0.0, 5.0)});
  EXPECT_NO_THROW(ok.validate_against(eet));
  Workload bad({make_task(1, 7, 0.0, 5.0)});  // type 7 not in the EET
  EXPECT_EQ(input_error_of([&] { bad.validate_against(eet); }),
            "workload: task 1 references task type id 7 that is not defined within the "
            "EET matrix");
}

TEST(Workload, TypeHistogram) {
  Workload workload({make_task(1, 0, 0.0, 5.0), make_task(2, 1, 1.0, 5.0),
                     make_task(3, 1, 2.0, 6.0)});
  const auto histogram = workload.type_histogram(2);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 2u);
}

TEST(Workload, CsvParseWithDeadline) {
  const EetMatrix eet = sample_eet();
  const Workload workload = Workload::from_csv_text(
      "task_id,task_type,arrival_time,deadline\n0,T1,0.5,4.5\n1,T2,1.25,9\n", eet);
  ASSERT_EQ(workload.size(), 2u);
  EXPECT_EQ(workload.tasks()[0].type, 0u);
  EXPECT_DOUBLE_EQ(workload.tasks()[0].arrival, 0.5);
  EXPECT_DOUBLE_EQ(workload.tasks()[0].deadline, 4.5);
  EXPECT_EQ(workload.tasks()[1].type, 1u);
}

TEST(Workload, CsvParseWithoutDeadlineColumn) {
  const EetMatrix eet = sample_eet();
  const Workload workload =
      Workload::from_csv_text("task_id,task_type,arrival_time\n0,T1,2\n", eet);
  EXPECT_EQ(workload.tasks()[0].deadline, e2c::core::kTimeInfinity);
}

TEST(Workload, CsvEmptyDeadlineFieldMeansInfinite) {
  const EetMatrix eet = sample_eet();
  const Workload workload = Workload::from_csv_text(
      "task_id,task_type,arrival_time,deadline\n0,T1,2,\n", eet);
  EXPECT_EQ(workload.tasks()[0].deadline, e2c::core::kTimeInfinity);
}

TEST(Workload, CsvRejectsUnknownTaskType) {
  // The paper's rule: no workload task type outside the EET.
  const EetMatrix eet = sample_eet();
  EXPECT_THROW((void)Workload::from_csv_text(
                   "task_id,task_type,arrival_time\n0,T9,1\n", eet),
               e2c::InputError);
}

TEST(Workload, CsvRejectsMalformedRows) {
  EXPECT_EQ(csv_error(""), "workload CSV: file is empty");
  EXPECT_EQ(csv_error("task_id\n"),
            "workload CSV: expected header task_id,task_type,arrival_time[,deadline] "
            "(line 1)");
  EXPECT_EQ(csv_error("task_id,task_type,arrival_time\n0,T1,1\n1,T2\n"),
            "workload CSV: too few fields at line 3");
  EXPECT_EQ(csv_error("task_id,task_type,arrival_time\nx,T1,1\n"),
            "workload CSV: bad task_id 'x' at line 2");
  EXPECT_EQ(csv_error("task_id,task_type,arrival_time\n-4,T1,1\n"),
            "workload CSV: bad task_id '-4' at line 2");
  EXPECT_EQ(csv_error("task_id,task_type,arrival_time\n0,T1,abc\n"),
            "workload CSV: bad arrival_time 'abc' at line 2");
  EXPECT_EQ(csv_error("task_id,task_type,arrival_time,deadline\n0,T1,1,2\n1,T2,3,soon\n"),
            "workload CSV: bad deadline 'soon' at line 3");
}

TEST(Workload, CsvErrorsCarryPathAndLine) {
  const std::string path = testing::TempDir() + "/e2c_workload_bad.csv";
  {
    std::ofstream out(path);
    out << "task_id,task_type,arrival_time\n0,T1,1\n\n1,T2,oops\n";
  }
  EXPECT_EQ(input_error_of([&] { (void)Workload::load_csv(path, sample_eet()); }),
            "workload CSV: bad arrival_time 'oops' at " + path + ":4");
  std::remove(path.c_str());
}

TEST(Workload, CsvRoundTrip) {
  const EetMatrix eet = sample_eet();
  Workload original({make_task(0, 0, 0.5, 4.0), make_task(1, 1, 2.5, 12.0),
                     make_task(2, 0, 3.0, e2c::core::kTimeInfinity)});
  const Workload parsed = Workload::from_csv_text(original.to_csv_text(eet), eet);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed.tasks()[i].id, original.tasks()[i].id);
    EXPECT_EQ(parsed.tasks()[i].type, original.tasks()[i].type);
    EXPECT_NEAR(parsed.tasks()[i].arrival, original.tasks()[i].arrival, 1e-4);
    if (original.tasks()[i].deadline == e2c::core::kTimeInfinity) {
      EXPECT_EQ(parsed.tasks()[i].deadline, e2c::core::kTimeInfinity);
    } else {
      EXPECT_NEAR(parsed.tasks()[i].deadline, original.tasks()[i].deadline, 1e-4);
    }
  }
}

TEST(Workload, SaveAndLoadFile) {
  const EetMatrix eet = sample_eet();
  const std::string path = testing::TempDir() + "/e2c_workload_test.csv";
  Workload original({make_task(0, 0, 1.0, 7.0)});
  original.save_csv(path, eet);
  const Workload loaded = Workload::load_csv(path, eet);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.tasks()[0].arrival, 1.0);
  std::remove(path.c_str());
}

TEST(Workload, EmptyWorkloadBehaves) {
  Workload workload;
  EXPECT_TRUE(workload.empty());
  EXPECT_DOUBLE_EQ(workload.last_arrival(), 0.0);
  EXPECT_NO_THROW(workload.validate_against(sample_eet()));
}

}  // namespace
