// Unit tests for the CSV parser/writer (util/csv.hpp).
#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace {

using e2c::util::CsvDoc;
using e2c::util::csv_escape;
using e2c::util::parse_csv_doc;
using e2c::util::to_csv;

std::vector<std::string> row_of(const CsvDoc& doc, std::size_t r) {
  return {doc.row(r).begin(), doc.row(r).end()};
}

TEST(CsvParse, SimpleRows) {
  const CsvDoc doc = parse_csv_doc("a,b,c\n1,2,3\n");
  ASSERT_EQ(doc.row_count(), 2u);
  EXPECT_EQ(row_of(doc, 0), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(row_of(doc, 1), (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvParse, MissingTrailingNewline) {
  const CsvDoc doc = parse_csv_doc("a,b\n1,2");
  ASSERT_EQ(doc.row_count(), 2u);
  EXPECT_EQ(row_of(doc, 1), (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, CrLfLineEndings) {
  const CsvDoc doc = parse_csv_doc("a,b\r\n1,2\r\n");
  ASSERT_EQ(doc.row_count(), 2u);
  EXPECT_EQ(row_of(doc, 0), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvParse, BlankLinesSkipped) {
  const CsvDoc doc = parse_csv_doc("a,b\n\n\n1,2\n\n");
  ASSERT_EQ(doc.row_count(), 2u);
}

TEST(CsvParse, EmptyInput) {
  EXPECT_TRUE(parse_csv_doc("").empty());
  EXPECT_TRUE(parse_csv_doc("\n\n").empty());
}

TEST(CsvParse, QuotedFieldWithComma) {
  const CsvDoc doc = parse_csv_doc("\"a,b\",c\n");
  ASSERT_EQ(doc.row_count(), 1u);
  EXPECT_EQ(row_of(doc, 0), (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvParse, QuotedFieldWithEscapedQuote) {
  const CsvDoc doc = parse_csv_doc("\"say \"\"hi\"\"\",x\n");
  ASSERT_EQ(doc.row(0)[0], "say \"hi\"");
}

TEST(CsvParse, QuotedFieldWithNewline) {
  const CsvDoc doc = parse_csv_doc("\"line1\nline2\",x\n");
  ASSERT_EQ(doc.row_count(), 1u);
  EXPECT_EQ(doc.row(0)[0], "line1\nline2");
}

TEST(CsvParse, EmptyFieldsPreserved) {
  const CsvDoc doc = parse_csv_doc("a,,c\n");
  EXPECT_EQ(row_of(doc, 0), (std::vector<std::string>{"a", "", "c"}));
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  EXPECT_THROW((void)parse_csv_doc("\"oops\n"), e2c::InputError);
}

TEST(CsvEscape, PlainFieldUntouched) { EXPECT_EQ(csv_escape("hello"), "hello"); }

TEST(CsvEscape, CommaQuoted) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(CsvEscape, QuoteDoubled) { EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\""); }

TEST(CsvEscape, NewlineQuoted) { EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\""); }

TEST(CsvRoundTrip, SerializeThenParse) {
  const std::vector<std::vector<std::string>> rows{
      {"id", "name,with,commas", "note"},
      {"1", "plain", "multi\nline"},
      {"2", "quote\"inside", ""},
  };
  const CsvDoc parsed = parse_csv_doc(to_csv(rows));
  ASSERT_EQ(parsed.row_count(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) EXPECT_EQ(row_of(parsed, r), rows[r]);
}

TEST(CsvParse, RowLinesTrackSourceLines) {
  // Blank lines and a multi-line quoted field shift later rows: loaders must
  // report the line a row *started* on, not its index in the document.
  const CsvDoc doc = parse_csv_doc("a,b\n\n1,2\n\"x\ny\",3\n5,6\n");
  ASSERT_EQ(doc.row_count(), 4u);
  const std::vector<std::string> lines{doc.where(0), doc.where(1), doc.where(2), doc.where(3)};
  EXPECT_EQ(lines, (std::vector<std::string>{"line 1", "line 3", "line 4", "line 6"}));
}

TEST(CsvParse, WhereNamesSourceFileOrLine) {
  const CsvDoc in_memory = parse_csv_doc("a\nb\n");
  EXPECT_EQ(in_memory.where(1), "line 2");
  const CsvDoc from_path = parse_csv_doc("a\nb\n", "traces/faults.csv");
  EXPECT_EQ(from_path.where(1), "traces/faults.csv:2");
}

TEST(CsvFile, ReadBackCarriesPathInLocators) {
  const std::string path = testing::TempDir() + "/e2c_csv_where.csv";
  e2c::util::write_csv_file(path, {{"h"}, {"v"}});
  const CsvDoc doc = e2c::util::read_csv_doc(path);
  EXPECT_EQ(doc.source(), path);
  EXPECT_EQ(doc.where(1), path + ":2");
  std::remove(path.c_str());
}

TEST(CsvFile, WriteAndReadBack) {
  const std::string path = testing::TempDir() + "/e2c_csv_test.csv";
  e2c::util::write_csv_file(path, {{"a", "b"}, {"1", "2"}});
  const CsvDoc doc = e2c::util::read_csv_doc(path);
  ASSERT_EQ(doc.row_count(), 2u);
  EXPECT_EQ(row_of(doc, 1), (std::vector<std::string>{"1", "2"}));
  std::remove(path.c_str());
}

TEST(CsvFile, MissingFileThrows) {
  EXPECT_THROW((void)e2c::util::read_csv_doc("/nonexistent/nope.csv"), e2c::IoError);
  EXPECT_THROW((void)e2c::util::read_csv_doc(testing::TempDir()), e2c::IoError);
}

TEST(CsvFile, UnwritablePathThrows) {
  EXPECT_THROW(e2c::util::write_csv_file("/nonexistent/dir/out.csv", {{"a"}}),
               e2c::IoError);
}

}  // namespace
