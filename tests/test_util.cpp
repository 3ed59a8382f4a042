#include <gtest/gtest.h>

#include <cmath>

#include "util/bytebuffer.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace ju = jungle::util;

// ---------------------------------------------------------------- strings

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(ju::trim("  hello \t"), "hello");
  EXPECT_EQ(ju::trim(""), "");
  EXPECT_EQ(ju::trim(" \t \n"), "");
  EXPECT_EQ(ju::trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto fields = ju::split("a,b,,c", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "c");
}

TEST(Strings, SplitSingleField) {
  auto fields = ju::split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(ju::starts_with("resource das4", "resource"));
  EXPECT_FALSE(ju::starts_with("res", "resource"));
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(ju::format_bytes(512), "512.0 B");
  EXPECT_EQ(ju::format_bytes(1536), "1.5 KiB");
}

TEST(Strings, FormatBitrate) {
  EXPECT_EQ(ju::format_bitrate(8.2e9), "8.20 Gbit/s");
  EXPECT_EQ(ju::format_bitrate(100), "100.00 bit/s");
}

// ------------------------------------------------------------- bytebuffer

TEST(ByteBuffer, RoundTripPrimitives) {
  ju::ByteWriter writer;
  writer.put<std::int32_t>(-42);
  writer.put<double>(3.5);
  writer.put<std::uint8_t>(7);
  ju::ByteReader reader(std::move(writer).take());
  EXPECT_EQ(reader.get<std::int32_t>(), -42);
  EXPECT_EQ(reader.get<double>(), 3.5);
  EXPECT_EQ(reader.get<std::uint8_t>(), 7);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, RoundTripStringsAndVectors) {
  ju::ByteWriter writer;
  writer.put_string("phigrape");
  writer.put_vector(std::vector<double>{1.0, 2.0, 3.0});
  writer.put_string("");
  ju::ByteReader reader(std::move(writer).take());
  EXPECT_EQ(reader.get_string(), "phigrape");
  auto values = reader.get_vector<double>();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[1], 2.0);
  EXPECT_EQ(reader.get_string(), "");
}

TEST(ByteBuffer, RoundTripEmptyVector) {
  ju::ByteWriter writer;
  writer.put_vector(std::vector<double>{});
  writer.put<std::int32_t>(7);
  ju::ByteReader reader(std::move(writer).take());
  EXPECT_TRUE(reader.get_vector<double>().empty());
  EXPECT_EQ(reader.get<std::int32_t>(), 7);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, UnderrunThrowsWireError) {
  ju::ByteWriter writer;
  writer.put<std::uint16_t>(1);
  ju::ByteReader reader(std::move(writer).take());
  EXPECT_THROW(reader.get<std::uint64_t>(), jungle::WireError);
}

TEST(ByteBuffer, TruncatedStringThrows) {
  ju::ByteWriter writer;
  writer.put<std::uint32_t>(100);  // claims 100 bytes follow; none do
  ju::ByteReader reader(std::move(writer).take());
  EXPECT_THROW(reader.get_string(), jungle::WireError);
}

TEST(ByteBuffer, SizeTracksContent) {
  ju::ByteWriter writer;
  EXPECT_EQ(writer.size(), 0u);
  writer.put<double>(1.0);
  EXPECT_EQ(writer.size(), 8u);
  writer.put_string("ab");
  EXPECT_EQ(writer.size(), 8u + 4u + 2u);
}

// ------------------------------------- scatter-gather framing (data path)

TEST(ByteBuffer, PrefixReservedAndPatched) {
  ju::ByteWriter writer(8);
  writer.put<double>(2.5);
  writer.patch<std::uint32_t>(0, 77);
  writer.patch<std::uint16_t>(4, 5);
  EXPECT_EQ(writer.size(), 16u);
  ju::ByteReader reader(std::move(writer).take());
  EXPECT_EQ(reader.get<std::uint32_t>(), 77u);
  EXPECT_EQ(reader.get<std::uint16_t>(), 5);
  reader.get<std::uint16_t>();  // untouched prefix bytes stay zero
  EXPECT_EQ(reader.get<double>(), 2.5);
}

TEST(ByteBuffer, PatchOutsidePrefixThrows) {
  ju::ByteWriter writer(4);
  EXPECT_THROW(writer.patch<std::uint64_t>(0, 1), jungle::WireError);
  ju::ByteWriter plain;
  EXPECT_THROW(plain.patch<std::uint8_t>(0, 1), jungle::WireError);
}

TEST(ByteBuffer, SpanViewFramesWithoutOwningCopy) {
  std::vector<double> bulk{1.0, 2.0, 3.0, 4.0};
  ju::ByteWriter writer(8);
  writer.put_span_view(std::span<const double>(bulk));
  EXPECT_EQ(writer.size(), 8u + 8u + 32u);
  bulk[2] = 30.0;  // still borrowed: the change is visible at take() time
  ju::ByteReader reader(std::move(writer).take(), 8);
  auto values = reader.get_vector<double>();
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[2], 30.0);
}

TEST(ByteBuffer, AppendSplicesSegments) {
  std::vector<double> bulk{9.0, 8.0};
  ju::ByteWriter payload;
  payload.put<std::uint64_t>(41);
  payload.put_span_view(std::span<const double>(bulk));
  payload.put_string("tail");
  ju::ByteWriter frame(8);
  frame.patch<std::uint32_t>(0, 1);
  frame.append(std::move(payload));
  EXPECT_EQ(frame.size(), 8u + 8u + (8u + 16u) + (4u + 4u));
  ju::ByteReader reader(std::move(frame).take());
  EXPECT_EQ(reader.get<std::uint32_t>(), 1u);
  reader.get<std::uint32_t>();
  EXPECT_EQ(reader.get<std::uint64_t>(), 41u);
  auto values = reader.get_vector<double>();
  EXPECT_EQ(values[1], 8.0);
  EXPECT_EQ(reader.get_string(), "tail");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteBuffer, ReaderOffsetAndRelease) {
  ju::ByteWriter writer;
  writer.put<std::uint64_t>(7);
  writer.put<double>(1.25);
  auto bytes = std::move(writer).take();
  ju::ByteReader header(std::move(bytes));
  EXPECT_EQ(header.get<std::uint64_t>(), 7u);
  std::size_t offset = header.cursor();
  ju::ByteReader payload(std::move(header).release(), offset);
  EXPECT_EQ(payload.get<double>(), 1.25);
  EXPECT_THROW(ju::ByteReader(std::vector<std::uint8_t>{1}, 5),
               jungle::WireError);
}

TEST(ByteBuffer, HugeArrayCountThrowsInsteadOfOverflowing) {
  // A corrupt count whose byte size wraps 64-bit arithmetic must surface
  // as WireError, not as a span/vector claiming 2^61 elements.
  ju::ByteWriter writer;
  writer.put<std::uint64_t>(0x2000000000000001ULL);
  writer.put<double>(0.0);
  ju::ByteReader span_reader(std::move(writer).take());
  EXPECT_THROW(span_reader.get_span<double>(), jungle::WireError);
  ju::ByteWriter again;
  again.put<std::uint64_t>(0x2000000000000001ULL);
  again.put<double>(0.0);
  ju::ByteReader vector_reader(std::move(again).take());
  EXPECT_THROW(vector_reader.get_vector<double>(), jungle::WireError);
}

TEST(ByteBuffer, GetSpanIsViewAndChecksAlignment) {
  ju::ByteWriter writer;  // span count at 0, data 8-aligned
  writer.put_vector(std::vector<double>{4.0, 5.0});
  ju::ByteReader reader(std::move(writer).take());
  auto span = reader.get_span<double>();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[1], 5.0);
  EXPECT_TRUE(reader.exhausted());

  ju::ByteWriter odd;
  odd.put<std::uint32_t>(1);  // forces 4-byte alignment for what follows
  odd.put_vector(std::vector<double>{1.0});
  ju::ByteReader misaligned(std::move(odd).take());
  misaligned.get<std::uint32_t>();
  EXPECT_THROW(misaligned.get_span<double>(), jungle::WireError);
}

// ----------------------------------------------------------------- config

TEST(Config, ParsesSectionsKeysComments) {
  auto config = ju::Config::parse(
      "# deployment file\n"
      "[resource das4-vu]\n"
      "middleware = sge   ; scheduler\n"
      "cores = 8\n"
      "\n"
      "[resource lgm]\n"
      "middleware = ssh\n"
      "gpu = tesla-c2050\n");
  ASSERT_EQ(config.sections().size(), 2u);
  EXPECT_EQ(config.sections()[0], "resource das4-vu");
  EXPECT_EQ(config.get("resource das4-vu", "middleware"), "sge");
  EXPECT_EQ(config.get_int("resource das4-vu", "cores"), 8);
  EXPECT_EQ(config.get("resource lgm", "gpu"), "tesla-c2050");
}

TEST(Config, MissingKeyThrows) {
  auto config = ju::Config::parse("[a]\nx = 1\n");
  EXPECT_THROW(config.get("a", "y"), jungle::ConfigError);
  EXPECT_THROW(config.get("b", "x"), jungle::ConfigError);
  EXPECT_EQ(config.get_or("a", "y", "fallback"), "fallback");
}

TEST(Config, TypeErrors) {
  auto config = ju::Config::parse("[a]\nx = notanumber\nb = maybe\n");
  EXPECT_THROW(config.get_int("a", "x"), jungle::ConfigError);
  EXPECT_THROW(config.get_double("a", "x"), jungle::ConfigError);
  EXPECT_THROW(config.get_bool_or("a", "b", false), jungle::ConfigError);
}

TEST(Config, BoolAndDoubleParsing) {
  auto config = ju::Config::parse("[a]\nflag = yes\nrate = 2.5\noff = 0\n");
  EXPECT_TRUE(config.get_bool_or("a", "flag", false));
  EXPECT_FALSE(config.get_bool_or("a", "off", true));
  EXPECT_TRUE(config.get_bool_or("a", "missing", true));
  EXPECT_DOUBLE_EQ(config.get_double("a", "rate"), 2.5);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(ju::Config::parse("[a]\njust words\n"), jungle::ConfigError);
  EXPECT_THROW(ju::Config::parse("x = 1\n"), jungle::ConfigError);
  EXPECT_THROW(ju::Config::parse("[unterminated\n"), jungle::ConfigError);
}

TEST(Config, SetAndKeysPreserveOrder) {
  ju::Config config;
  config.set("s", "b", "1");
  config.set("s", "a", "2");
  config.set("s", "b", "3");  // overwrite keeps position
  auto keys = config.keys("s");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "b");
  EXPECT_EQ(config.get("s", "b"), "3");
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  ju::Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDecorrelates) {
  ju::Rng a(1);
  ju::Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, UniformRange) {
  ju::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double value = rng.uniform(2.0, 3.0);
    EXPECT_GE(value, 2.0);
    EXPECT_LT(value, 3.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  ju::Rng rng(99);
  ju::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

// ------------------------------------------------------------------ stats

TEST(Stats, RunningStatsBasics) {
  ju::RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

TEST(Stats, PercentileInterpolates) {
  ju::SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(static_cast<double>(i));
  EXPECT_NEAR(set.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(set.percentile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(set.percentile(0.5), 50.5, 1e-9);
}

TEST(Stats, EmptySampleSetIsZero) {
  ju::SampleSet set;
  EXPECT_EQ(set.percentile(0.5), 0.0);
}

// ---------------------------------------------------------------- logging

TEST(Logging, SinkCapturesAboveThreshold) {
  std::vector<std::string> captured;
  jungle::log::ScopedSink sink(
      [&](jungle::log::Level, const std::string& component,
          const std::string& message) {
        captured.push_back(component + ":" + message);
      });
  auto previous = jungle::log::threshold();
  jungle::log::set_threshold(jungle::log::Level::info);
  jungle::log::debug("x") << "dropped";
  jungle::log::info("net") << "value=" << 42;
  jungle::log::set_threshold(previous);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "net:value=42");
}
