// proxy_lint's own suite: each fixture under tests/lint_fixtures/ trips
// exactly its rule at the marked line, suppressions silence it, and the
// baseline ratchet admits frozen findings while failing new ones.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proxy_lint/lint.h"

namespace {

using proxy_lint::Baseline;
using proxy_lint::Finding;
using proxy_lint::Linter;

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(PROXY_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// 1-based line of the first line containing `needle` (0 if absent).
int LineOf(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.find(needle) != std::string::npos) return n;
  }
  return 0;
}

/// Lints one fixture under a virtual repo path (rules are path-scoped).
std::vector<Finding> Lint(const std::string& fixture,
                          const std::string& virtual_path) {
  const std::string text = ReadFixture(fixture);
  Linter linter;
  linter.CollectDeclarations(virtual_path, text);
  return linter.Analyze(virtual_path, text);
}

std::set<std::string> Rules(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

bool HasFindingAt(const std::vector<Finding>& findings, const std::string& rule,
                  int line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.line == line) return true;
  }
  return false;
}

TEST(ProxyLintL1, MirrorBugReportedAtTheRangeFor) {
  const std::string text = ReadFixture("l1_mirror_bug.cpp");
  const std::vector<Finding> f = Lint("l1_mirror_bug.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L1"});
  EXPECT_TRUE(HasFindingAt(f, "L1", LineOf(text, "MARK:l1-mirror")));
}

TEST(ProxyLintL1, HeldReferenceAndIteratorAcrossAwait) {
  const std::string text = ReadFixture("l1_held_reference.cpp");
  const std::vector<Finding> f =
      Lint("l1_held_reference.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L1"});
  EXPECT_TRUE(HasFindingAt(f, "L1", LineOf(text, "MARK:l1-reference")));
  EXPECT_TRUE(HasFindingAt(f, "L1", LineOf(text, "MARK:l1-iterator")));
  // Audit() uses its iterator only inside the awaiting statement — the
  // arguments are evaluated before the suspension, so no finding there.
  EXPECT_EQ(f.size(), 2u);
}

TEST(ProxyLintL1, AppliesInTestsToo) {
  // L1/L2 are not path-scoped: a hazard in a test is still a hazard.
  const std::string text = ReadFixture("l1_mirror_bug.cpp");
  const std::vector<Finding> f = Lint("l1_mirror_bug.cpp", "tests/x_test.cpp");
  EXPECT_TRUE(HasFindingAt(f, "L1", LineOf(text, "MARK:l1-mirror")));
}

TEST(ProxyLintL2, DiscardedTaskReportedOnceHandledFormsPass) {
  const std::string text = ReadFixture("l2_discarded_task.cpp");
  const std::vector<Finding> f =
      Lint("l2_discarded_task.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L2"});
  EXPECT_TRUE(HasFindingAt(f, "L2", LineOf(text, "MARK:l2-discarded")));
  EXPECT_TRUE(HasFindingAt(f, "L2", LineOf(text, "MARK:l2-typed-reply")));
  // co_await / Spawn / (void) / named binding are all handled; the
  // ambiguous name (void in one class, Co in another) stays silent.
  EXPECT_EQ(f.size(), 2u);
}

TEST(ProxyLintL5, DiscardedTimerReportedOnceHandledFormsPass) {
  const std::string text = ReadFixture("l5_discarded_timer.cpp");
  const std::vector<Finding> f =
      Lint("l5_discarded_timer.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L5"});
  EXPECT_TRUE(HasFindingAt(f, "L5", LineOf(text, "MARK:l5-discarded")));
  // .Detach() / .Cancel() / assignment / named binding / (void) / stored
  // in a container are all handled; the free function named Post (no
  // member access) stays out of scope.
  EXPECT_EQ(f.size(), 1u);
}

TEST(ProxyLintL5, AppliesInTestsToo) {
  // Like L1/L2, L5 is not path-scoped: a heartbeat that never fires is
  // just as silent in a test harness.
  const std::string text = ReadFixture("l5_discarded_timer.cpp");
  const std::vector<Finding> f =
      Lint("l5_discarded_timer.cpp", "tests/x_test.cpp");
  EXPECT_TRUE(HasFindingAt(f, "L5", LineOf(text, "MARK:l5-discarded")));
}

TEST(ProxyLintL3, LeaksReportedInSrcExemptInTests) {
  const std::string text = ReadFixture("l3_encapsulation_leak.cpp");
  const std::vector<Finding> in_src =
      Lint("l3_encapsulation_leak.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(in_src), std::set<std::string>{"L3"});
  EXPECT_TRUE(HasFindingAt(in_src, "L3", LineOf(text, "MARK:l3-client")));
  EXPECT_TRUE(HasFindingAt(in_src, "L3", LineOf(text, "MARK:l3-frame")));
  EXPECT_TRUE(HasFindingAt(in_src, "L3", LineOf(text, "MARK:l3-send")));
  EXPECT_TRUE(HasFindingAt(in_src, "L3", LineOf(text, "MARK:l3-decode")));

  // The transport layers and white-box tests own the wire format.
  EXPECT_TRUE(Lint("l3_encapsulation_leak.cpp", "tests/x_test.cpp").empty());
  EXPECT_TRUE(Lint("l3_encapsulation_leak.cpp", "src/rpc/x.cpp").empty());
}

TEST(ProxyLintL4, BareCallReportedOptionsFormAndTestsPass) {
  const std::string text = ReadFixture("l4_unchecked_deadline.cpp");
  const std::vector<Finding> in_src =
      Lint("l4_unchecked_deadline.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(in_src), std::set<std::string>{"L4"});
  EXPECT_TRUE(HasFindingAt(in_src, "L4", LineOf(text, "MARK:l4-call")));
  EXPECT_EQ(in_src.size(), 1u);

  EXPECT_TRUE(Lint("l4_unchecked_deadline.cpp", "tests/x_test.cpp").empty());
  EXPECT_TRUE(Lint("l4_unchecked_deadline.cpp", "bench/x.cpp").empty());
}

TEST(ProxyLintL6, ViewEscapesReportedSanctionedPatternsPass) {
  const std::string text = ReadFixture("l6_borrowed_view.cpp");
  const std::vector<Finding> f =
      Lint("l6_borrowed_view.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L6"});
  EXPECT_TRUE(HasFindingAt(f, "L6", LineOf(text, "MARK:l6-member-store")));
  EXPECT_TRUE(HasFindingAt(f, "L6", LineOf(text, "MARK:l6-container")));
  EXPECT_TRUE(HasFindingAt(f, "L6", LineOf(text, "MARK:l6-detached")));
  EXPECT_TRUE(HasFindingAt(f, "L6", LineOf(text, "MARK:l6-sim-detach")));
  EXPECT_TRUE(HasFindingAt(f, "L6", LineOf(text, "MARK:l6-return")));
  // Scalar derivations, owning copies, same-frame consumption, the
  // view+arena pattern, and view-returning accessors are all exempt.
  EXPECT_EQ(f.size(), 5u);
}

TEST(ProxyLintL7, FaithfulPairProducesNoFindings) {
  EXPECT_TRUE(Lint("l7_frame_clean.cpp", "src/rpc/probe.cpp").empty());
}

TEST(ProxyLintL7, FieldOrderDriftCaught) {
  const std::string text = ReadFixture("l7_frame_drift.cpp");
  const std::vector<Finding> f =
      Lint("l7_frame_drift.cpp", "src/rpc/probe.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L7"});
  // The injected one-field drift in the request-frame copy is reported
  // at the first diverging decoder op.
  EXPECT_TRUE(HasFindingAt(f, "L7", LineOf(text, "MARK:l7-drift")));
  EXPECT_EQ(f.size(), 1u);
}

TEST(ProxyLintL7, OnlyAppliesToWirePaths) {
  // The same drifted pair outside src/rpc and src/serde is out of
  // scope: Encode/Decode names elsewhere are not the wire protocol.
  EXPECT_TRUE(Lint("l7_frame_drift.cpp", "src/services/x.cpp").empty());
}

TEST(ProxyLintL8, DirectAndAwaitedDiscardsReportedHandledFormsPass) {
  const std::string text = ReadFixture("l8_unchecked_status.cpp");
  const std::vector<Finding> f =
      Lint("l8_unchecked_status.cpp", "src/services/x.cpp");
  EXPECT_EQ(Rules(f), std::set<std::string>{"L8"});
  EXPECT_TRUE(HasFindingAt(f, "L8", LineOf(text, "MARK:l8-direct")));
  EXPECT_TRUE(HasFindingAt(f, "L8", LineOf(text, "MARK:l8-awaited")));
  EXPECT_TRUE(HasFindingAt(f, "L8", LineOf(text, "MARK:l8-typed-reply")));
  // (void) casts, bound names, and Co<void> awaits are all handled.
  EXPECT_EQ(f.size(), 3u);

  // L8 is scoped to src/: a test deliberately dropping a status (e.g.
  // poking a crashed replica) is not a finding.
  EXPECT_TRUE(Lint("l8_unchecked_status.cpp", "tests/x_test.cpp").empty());
}

TEST(ProxyLintIndex, ResolvesCalleesAcrossTranslationUnits) {
  // The Co return type lives in one file, the discarding call in
  // another: only a cross-TU index can connect them.
  const std::string decl =
      "namespace s {\n"
      "class Pump {\n"
      " public:\n"
      "  sim::Co<void> Kick();\n"
      "};\n"
      "}  // namespace s\n";
  const std::string use =
      "namespace s {\n"
      "void Drive(Pump& p) {\n"
      "  p.Kick();\n"
      "}\n"
      "}  // namespace s\n";
  Linter linter;
  linter.CollectDeclarations("src/pump.h", decl);
  linter.CollectDeclarations("src/drive.cpp", use);
  const std::vector<Finding> f = linter.Analyze("src/drive.cpp", use);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "L2");
  EXPECT_EQ(f[0].line, 3);
}

TEST(ProxyLintSarif, RendersRuleCatalogueAndLocations) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 7, "L6", "view \"v\" escapes"}};
  const std::string sarif = proxy_lint::RenderSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"proxy_lint\""), std::string::npos);
  // All eight rules are declared in the driver's catalogue.
  for (const char* rule : {"L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8"}) {
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
  EXPECT_NE(sarif.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  // The quote in the message survives escaping.
  EXPECT_NE(sarif.find("view \\\"v\\\" escapes"), std::string::npos);
}

TEST(ProxyLintDiff, SubtractMatchesLineAgnosticallyAndMultisetAware) {
  const std::vector<Finding> base = {
      {"src/a.cpp", 10, "L8", "drop"},
      {"src/a.cpp", 20, "L8", "drop"},
  };
  const std::vector<Finding> current = {
      {"src/a.cpp", 12, "L8", "drop"},   // shifted: still covered
      {"src/a.cpp", 25, "L8", "drop"},   // second identical: covered
      {"src/a.cpp", 30, "L8", "drop"},   // third: new
      {"src/a.cpp", 31, "L6", "escape"}, // different rule: new
  };
  const std::vector<Finding> fresh =
      proxy_lint::SubtractFindings(current, base);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].line, 30);
  EXPECT_EQ(fresh[1].rule, "L6");
}

TEST(ProxyLintSuppression, NolintSilencesEveryRule) {
  EXPECT_TRUE(Lint("nolint_suppressed.cpp", "src/services/x.cpp").empty());
}

TEST(ProxyLintClean, SanctionedIdiomsProduceNoFindings) {
  EXPECT_TRUE(Lint("clean.cpp", "src/services/x.cpp").empty());
}

TEST(ProxyLintBaseline, RoundTripAndRatchet) {
  const std::vector<Finding> frozen = {
      {"src/a.cpp", 10, "L4", "m"},
      {"src/a.cpp", 20, "L4", "m"},
      {"src/b.cpp", 5, "L3", "m"},
  };
  const std::string json = Baseline::Render(frozen);
  Baseline baseline;
  std::string error;
  ASSERT_TRUE(Baseline::Parse(json, baseline, error)) << error;
  EXPECT_EQ(baseline.allowed.size(), 2u);
  EXPECT_EQ((baseline.allowed.at({"src/a.cpp", "L4"})), 2);

  // Frozen findings pass; one more than the budget fails; a shrink is
  // reported as a stale entry, never an error.
  std::vector<std::string> stale;
  EXPECT_TRUE(ApplyBaseline(frozen, baseline, &stale).empty());
  EXPECT_TRUE(stale.empty());

  std::vector<Finding> grown = frozen;
  grown.push_back({"src/a.cpp", 30, "L4", "m"});
  EXPECT_EQ(ApplyBaseline(grown, baseline, &stale).size(), 1u);

  stale.clear();
  const std::vector<Finding> shrunk = {frozen[0], frozen[2]};
  EXPECT_TRUE(ApplyBaseline(shrunk, baseline, &stale).empty());
  EXPECT_EQ(stale.size(), 1u);
}

TEST(ProxyLintBaseline, MalformedJsonRejected) {
  Baseline baseline;
  std::string error;
  EXPECT_FALSE(Baseline::Parse("{\"version\": 1, \"entries\": [", baseline,
                               error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
