// Scenario-file parser tests: canonical round-trips (parse → serialize →
// parse identity, serialize fixed point), line-numbered rejection of every
// malformed-input class, and a deterministic fuzz loop over a token-soup
// generator (run under ASan/UBSan in CI). Also covers the report JSON
// reader/writer round-trip, since it shares the no-dependency policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scenario/parser.h"
#include "scenario/report.h"
#include "scenario/scenario.h"

namespace ert::scenario {
namespace {

Scenario sample_scenario() {
  Scenario s;
  s.name = "kitchen-sink";
  Phase flash;
  flash.type = PhaseType::kFlash;
  flash.start = 0.5;
  flash.end = 12.25;
  flash.multiplier = 7.75;
  flash.ramp = 0.125;
  Phase diurnal;
  diurnal.type = PhaseType::kDiurnal;
  diurnal.start = 0.0;
  diurnal.end = 100.0;
  diurnal.period = 8.1;
  diurnal.amplitude = 0.3333333333333333;  // needs full precision
  Phase hotspot;
  hotspot.type = PhaseType::kHotspot;
  hotspot.start = 2.0;
  hotspot.end = 9.0;
  hotspot.catalog = 64;
  hotspot.exponent = 1.1;
  hotspot.rotate = 0.7;
  Phase churn;
  churn.type = PhaseType::kChurn;
  churn.start = 1.0;
  churn.end = 50.0;
  churn.interarrival = 0.05;
  churn.bias = 5;
  Phase partition;
  partition.type = PhaseType::kPartition;
  partition.start = 20.0;
  partition.end = 30.0;
  partition.fraction = 0.45;
  partition.settle = 2.5;
  partition.waive_audit = false;
  s.phases = {flash, diurnal, hotspot, churn, partition};
  return s;
}

// --- round trips -------------------------------------------------------------

TEST(ScenarioParser, SerializeParseIdentityAcrossAllPhaseTypes) {
  const Scenario s = sample_scenario();
  const std::string text = serialize(s);
  const ParseResult back = parse(text);
  ASSERT_TRUE(back.ok) << back.message();
  EXPECT_EQ(back.scenario, s);
  // Canonical form is a fixed point: serializing again changes nothing.
  EXPECT_EQ(serialize(back.scenario), text);
}

TEST(ScenarioParser, ParsesHandWrittenFileWithCommentsAndSpacing) {
  const std::string text =
      "# a flash crowd over a rotating hot set\n"
      "name = demo\n"
      "\n"
      "[phase]\n"
      "type = flash\n"
      "  start=1\n"
      "end   =  4\n"
      "multiplier = 6   # inline comments are not supported; this is a key\n";
  // The trailing text after 6 is part of the value and must be rejected:
  const ParseResult strict = parse(text);
  EXPECT_FALSE(strict.ok);
  EXPECT_EQ(strict.line, 8);

  const std::string clean =
      "# a flash crowd\n"
      "name = demo\n"
      "\n"
      "[phase]\n"
      "type = flash\n"
      "  start=1\n"
      "end   =  4\n"
      "multiplier = 6\n";
  const ParseResult r = parse(clean);
  ASSERT_TRUE(r.ok) << r.message();
  EXPECT_EQ(r.scenario.name, "demo");
  ASSERT_EQ(r.scenario.phases.size(), 1u);
  EXPECT_EQ(r.scenario.phases[0].multiplier, 6.0);
}

TEST(ScenarioParser, KeysBeforeTypeAreBufferedAndApplied) {
  const std::string text =
      "[phase]\n"
      "start = 2\n"
      "end = 5\n"
      "type = flash\n"
      "multiplier = 3\n";
  const ParseResult r = parse(text);
  ASSERT_TRUE(r.ok) << r.message();
  EXPECT_EQ(r.scenario.phases[0].start, 2.0);
  EXPECT_EQ(r.scenario.phases[0].multiplier, 3.0);
}

TEST(ScenarioParser, EmptyTextIsAnEmptyScenario) {
  const ParseResult r = parse("");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.scenario.inert());
  EXPECT_TRUE(r.scenario.phases.empty());
}

// --- line-numbered rejection -------------------------------------------------

struct BadCase {
  const char* label;
  std::string text;
  int line;
};

TEST(ScenarioParser, RejectsMalformedInputWithTheRightLine) {
  const std::vector<BadCase> cases = {
      {"unknown key", "[phase]\ntype = flash\nbogus = 1\n", 3},
      {"wrong-phase key", "[phase]\ntype = flash\ncatalog = 8\n", 3},
      {"buffered wrong-phase key (reports the buffered line)",
       "[phase]\ncatalog = 8\ntype = flash\n", 2},
      {"bad number", "[phase]\ntype = flash\nstart = abc\n", 3},
      {"trailing junk in number", "[phase]\ntype = flash\nstart = 1x\n", 3},
      {"nan rejected", "[phase]\ntype = flash\nstart = nan\n", 3},
      {"missing type", "[phase]\nstart = 1\n", 2},
      {"unknown type", "[phase]\ntype = gravity\n", 2},
      {"duplicate type", "[phase]\ntype = flash\ntype = churn\n", 3},
      {"unknown section", "[banana]\n", 1},
      {"key before first [phase]", "start = 1\n", 1},
      {"unknown header key", "colour = red\n[phase]\ntype = flash\n", 1},
      {"no equals sign", "[phase]\ntype = flash\nstart\n", 3},
      {"empty value", "[phase]\ntype = flash\nstart =\n", 3},
      {"negative count", "[phase]\ntype = hotspot\ncatalog = -4\n", 3},
      {"fractional count", "[phase]\ntype = hotspot\ncatalog = 3.5\n", 3},
      {"bad bool", "[phase]\ntype = partition\nwaive_audit = maybe\n", 3},
  };
  for (const auto& c : cases) {
    const ParseResult r = parse(c.text);
    EXPECT_FALSE(r.ok) << c.label;
    if (!r.ok) {
      EXPECT_EQ(r.line, c.line) << c.label << ": " << r.error;
      EXPECT_FALSE(r.error.empty()) << c.label;
    }
  }
}

TEST(ScenarioParser, ValidationFailuresNameThePhase) {
  // Parses fine, fails range validation: multiplier must be > 0.
  const ParseResult r = parse(
      "[phase]\ntype = flash\nstart = 0\nend = 5\nmultiplier = -2\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("phase 1"), std::string::npos) << r.error;
}

TEST(ScenarioParser, MissingFileReportsLineZero) {
  const ParseResult r = parse_file("/nonexistent/scenario.scn");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 0);
  EXPECT_NE(r.message("x.scn").find("x.scn"), std::string::npos);
}

// --- deterministic fuzz ------------------------------------------------------

// Token-soup generator: assembles lines from the parser's own vocabulary
// plus junk, so a good fraction of inputs exercise deep paths rather than
// dying on line 1. Seeded Rng => reproducible corpus.
std::string fuzz_input(Rng& rng) {
  static const char* kTokens[] = {
      "[phase]", "[banana]", "name", "type", "start", "end", "multiplier",
      "ramp", "period", "amplitude", "catalog", "exponent", "rotate",
      "interarrival", "bias", "fraction", "settle", "waive_audit", "flash",
      "diurnal", "hotspot", "churn", "partition", "=", "0", "1", "2.5",
      "1e3", "-1", "true", "false", "#x", "nan", "1x", "", "\t", " "};
  constexpr std::size_t kNumTokens = sizeof(kTokens) / sizeof(kTokens[0]);
  std::string out;
  const int lines = 1 + static_cast<int>(rng.index(12));
  for (int l = 0; l < lines; ++l) {
    const int toks = static_cast<int>(rng.index(6));
    for (int t = 0; t < toks; ++t) {
      out += kTokens[rng.index(kNumTokens)];
      if (rng.bernoulli(0.7)) out += ' ';
    }
    out += '\n';
  }
  return out;
}

TEST(ScenarioParserFuzz, NeverCrashesAndSurvivorsRoundTrip) {
  Rng rng(0xf022);
  int survivors = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string input = fuzz_input(rng);
    const ParseResult r = parse(input);  // must not crash / UB
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty()) << "input:\n" << input;
      continue;
    }
    ++survivors;
    // Anything accepted must round-trip through the canonical form.
    const ParseResult back = parse(serialize(r.scenario));
    ASSERT_TRUE(back.ok) << "canonical form rejected for input:\n" << input;
    EXPECT_EQ(back.scenario, r.scenario) << "input:\n" << input;
  }
  // The soup should produce at least a few valid scenarios; if not, the
  // generator rotted and the test lost its teeth.
  EXPECT_GT(survivors, 10) << "fuzz generator no longer reaches valid parses";
}

TEST(ScenarioParserFuzz, RandomBytesNeverCrash) {
  Rng rng(0xbeef);
  for (int i = 0; i < 2000; ++i) {
    std::string input;
    const std::size_t len = rng.index(160);
    input.reserve(len);
    for (std::size_t j = 0; j < len; ++j)
      input += static_cast<char>(rng.index(256));
    const ParseResult r = parse(input);  // exercise raw-byte robustness
    if (!r.ok) {
      EXPECT_GT(r.line, 0);
    }
  }
}

// --- report JSON -------------------------------------------------------------

Report sample_report() {
  Report rep;
  Cell a;
  a.protocol = "ert-af";
  a.substrate = "cycloid";
  a.scenario = "flash";
  a.mean_latency = 0.012345678901234567;
  a.p99_latency = 0.5;
  a.completed = 400;
  a.dropped_overload = 7;
  a.dropped_fault = 1;
  a.adapt_sheds = 123;
  a.adapt_grows = 45;
  a.bytes_control = 98765;
  a.bytes_query = 1234567;
  a.audit_sweeps = 30;
  a.audit_waived_sweeps = 3;
  a.audit_violations = 0;
  a.verdict = "pass";
  Cell b;
  b.protocol = "base";
  b.substrate = "chord";
  b.scenario = "waves \"quoted\"\\slash";  // escaping must round-trip
  b.verdict = "off";
  rep.cells = {a, b};
  return rep;
}

TEST(ReportJson, RoundTripsExactly) {
  const Report rep = sample_report();
  const std::string json = to_json(rep);
  Report back;
  std::string err;
  ASSERT_TRUE(from_json(json, &back, &err)) << err;
  EXPECT_EQ(back, rep);
  EXPECT_EQ(to_json(back), json);
}

TEST(ReportJson, RejectsMalformedAndUnknownFields) {
  Report out;
  std::string err;
  EXPECT_FALSE(from_json("", &out, &err));
  EXPECT_FALSE(from_json("{", &out, &err));
  EXPECT_FALSE(from_json("[]", &out, &err));
  EXPECT_FALSE(from_json("{\"cells\": []}", &out, &err));  // missing schema
  EXPECT_FALSE(from_json(
      "{\"schema\": \"ert.scenario.report.v0\", \"cells\": []}", &out, &err));
  // Unknown cell field must be rejected, not ignored.
  std::string json = to_json(sample_report());
  const auto pos = json.find("\"protocol\"");
  ASSERT_NE(pos, std::string::npos);
  json.insert(pos, "\"surprise\": 1, ");
  EXPECT_FALSE(from_json(json, &out, &err));
  EXPECT_NE(err.find("surprise"), std::string::npos) << err;
  // Trailing garbage after the document must be rejected.
  EXPECT_FALSE(from_json(to_json(sample_report()) + "x", &out, &err));
}

TEST(ReportJson, TableHasOneRowPerCell) {
  const std::string table = to_table(sample_report());
  EXPECT_NE(table.find("ert-af"), std::string::npos);
  EXPECT_NE(table.find("chord"), std::string::npos);
  EXPECT_NE(table.find("pass"), std::string::npos);
}

}  // namespace
}  // namespace ert::scenario
