#include "util/line_reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace datastage {
namespace {

struct Pair {
  std::string name;
  std::int32_t value = 0;
};

// A toy format: `pair <name> <int32> [<int64>]`, the optional field added to
// the first.
void parse_pair(LineReader& in, std::string_view directive, std::vector<Pair>& out) {
  if (directive != "pair") {
    in.fail("unknown directive '" + std::string(directive) + "'");
    return;
  }
  Pair p;
  std::int64_t extra = 0;
  if (in.read_name(p.name, "name") && in.read_int(p.value, "value") &&
      in.read_optional_int(extra, "extra") && in.at_line_end()) {
    p.value += static_cast<std::int32_t>(extra);
    out.push_back(p);
  }
}

bool read_pairs(const std::string& text, std::vector<Pair>* out, std::string* error) {
  std::istringstream is(text);
  std::optional<std::vector<Pair>> pairs = read_lines(is, "toy", "v2", error, parse_pair);
  if (pairs.has_value()) *out = *pairs;
  return pairs.has_value();
}

TEST(LineReaderTest, SkipsCommentsAndBlankLinesEverywhere) {
  std::vector<Pair> pairs;
  std::string error;
  ASSERT_TRUE(read_pairs("# lead\n\n  \t\ntoy v2  # header\npair a 1\n\n"
                         "pair b 2 3 # note\n#pair c 4\n",
                         &pairs, &error))
      << error;
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].name, "a");
  EXPECT_EQ(pairs[0].value, 1);
  EXPECT_EQ(pairs[1].name, "b");
  EXPECT_EQ(pairs[1].value, 5);
}

TEST(LineReaderTest, HeaderMustBeExactlyMagicAndVersion) {
  std::vector<Pair> pairs;
  for (const char* text : {"", "toy v1\n", "other v2\n", "toy\n", "toy v2 extra\n",
                           "pair a 1\n"}) {
    std::string error;
    EXPECT_FALSE(read_pairs(text, &pairs, &error)) << text;
    EXPECT_NE(error.find("header (expected 'toy v2')"), std::string::npos) << error;
  }
}

TEST(LineReaderTest, NumbersAreWholeTokens) {
  std::vector<Pair> pairs;
  std::string error;
  EXPECT_FALSE(read_pairs("toy v2\npair a 12x\n", &pairs, &error));
  EXPECT_EQ(error, "line 2: malformed value '12x'");
  EXPECT_FALSE(read_pairs("toy v2\npair a +1\n", &pairs, &error));
  EXPECT_EQ(error, "line 2: malformed value '+1'");
  EXPECT_FALSE(read_pairs("toy v2\npair a 1 2.5\n", &pairs, &error));
  EXPECT_EQ(error, "line 2: malformed extra '2.5'");
  EXPECT_FALSE(read_pairs("toy v2\npair a 2147483648\n", &pairs, &error));
  EXPECT_EQ(error, "line 2: value '2147483648' out of range");
}

TEST(LineReaderTest, MissingAndTrailingFields) {
  std::vector<Pair> pairs;
  std::string error;
  EXPECT_FALSE(read_pairs("toy v2\npair a\n", &pairs, &error));
  EXPECT_EQ(error, "line 2: expected value");
  EXPECT_FALSE(read_pairs("toy v2\npair a 1 2 3\n", &pairs, &error));
  EXPECT_EQ(error, "line 2: unexpected trailing token '3'");
}

TEST(LineReaderTest, FirstErrorWins) {
  std::vector<Pair> pairs;
  std::string error;
  EXPECT_FALSE(read_pairs("toy v2\npair a 1\n\nbogus\npair b x\n", &pairs, &error));
  EXPECT_EQ(error, "line 4: unknown directive 'bogus'");
  EXPECT_TRUE(pairs.empty());
}

TEST(LineReaderTest, FieldsLeftCountsWithoutConsuming) {
  std::istringstream is("a  b\tc \n");
  LineReader in(is);
  ASSERT_TRUE(in.next_line());
  EXPECT_EQ(in.fields_left(), 3u);
  EXPECT_EQ(in.next_token(), "a");
  EXPECT_EQ(in.fields_left(), 2u);
  EXPECT_EQ(in.next_token(), "b");
  EXPECT_EQ(in.next_token(), "c");
  EXPECT_EQ(in.fields_left(), 0u);
  EXPECT_TRUE(in.next_token().empty());
  EXPECT_FALSE(in.next_line());
}

TEST(LineReaderTest, FileFrontEndNamesAnUnopenablePath) {
  std::string error;
  const auto read = [](std::istream&, std::string*) -> std::optional<int> { return 1; };
  EXPECT_EQ(read_string<int>("anything", &error, read), 1);
  EXPECT_FALSE(read_file<int>("/no/such/dir/file.txt", &error, read).has_value());
  EXPECT_EQ(error, "cannot open file: /no/such/dir/file.txt");
}

}  // namespace
}  // namespace datastage
