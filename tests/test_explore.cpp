#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "explore/explore.hpp"
#include "util/error.hpp"

using namespace jungle;
using namespace jungle::explore;

// Smoke tests for the fault-schedule explorer itself: the replay format
// round-trips, a depth-bounded enumeration over the triple-plummer
// experiment finds no invariant violations, and replaying one schedule
// twice is bit-for-bit deterministic (the property that makes any failing
// schedule a one-line repro).

namespace {

std::string example_ini(const std::string& name) {
  std::string path =
      std::string(JUNGLE_SOURCE_DIR) + "/examples/experiments/" + name;
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

util::Config triple_plummer() {
  return util::Config::parse(example_ini("triple-plummer.ini"));
}

}  // namespace

TEST(Explore, ScheduleFormatRoundTrips) {
  const std::string text =
      "ckpt.commit@1#0=crash:node0;recover.replace@-1#2=link:metro-wan";
  Schedule schedule = parse_schedule(text);
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0].point, amuse::faultpoint::Point::ckpt_commit);
  EXPECT_EQ(schedule[0].iteration, 1);
  EXPECT_EQ(schedule[0].occurrence, 0);
  EXPECT_EQ(schedule[0].kind, Injection::Kind::crash);
  EXPECT_EQ(schedule[0].victim, "node0");
  EXPECT_EQ(schedule[1].point, amuse::faultpoint::Point::recover_replace);
  EXPECT_EQ(schedule[1].iteration, -1);
  EXPECT_EQ(schedule[1].occurrence, 2);
  EXPECT_EQ(schedule[1].kind, Injection::Kind::link);
  EXPECT_EQ(schedule[1].victim, "metro-wan");
  EXPECT_EQ(format_schedule(schedule), text);

  EXPECT_THROW(parse_schedule("nonsense"), ConfigError);
  EXPECT_THROW(parse_schedule("no.such.point@0#0=crash:x"), ConfigError);
  EXPECT_THROW(parse_schedule("step.evolve@0#0=melt:x"), ConfigError);
  EXPECT_THROW(parse_schedule("step.evolve@0#0=crash:"), ConfigError);
}

TEST(Explore, ProcessTierKindsRoundTrip) {
  // The PR 8 victim tiers survive the replay format: a failing schedule
  // that kills a daemon or proxy replays as exactly that.
  const std::string text =
      "step.evolve@0#0=daemon:edge;step.evolve@1#0=proxy:node0;"
      "ckpt.capture@1#0=worker:node0;ckpt.commit@1#1=timer:node1";
  Schedule schedule = parse_schedule(text);
  ASSERT_EQ(schedule.size(), 4u);
  EXPECT_EQ(schedule[0].kind, Injection::Kind::daemon);
  EXPECT_EQ(schedule[0].victim, "edge");
  EXPECT_EQ(schedule[1].kind, Injection::Kind::proxy);
  EXPECT_EQ(schedule[2].kind, Injection::Kind::worker);
  EXPECT_EQ(schedule[3].kind, Injection::Kind::timer);
  EXPECT_EQ(schedule[3].victim, "node1");
  EXPECT_EQ(format_schedule(schedule), text);
}

TEST(Explore, GoldenRunIsHealthyAndListsVictims) {
  Options options;
  options.iterations = 2;
  Explorer explorer(triple_plummer(), options);
  const RunReport& gold = explorer.golden();
  EXPECT_TRUE(gold.completed) << gold.error;
  EXPECT_EQ(gold.restarts, 0);
  EXPECT_EQ(gold.fired, 0);
  EXPECT_NE(gold.final_digest, 0u);
  ASSERT_EQ(gold.commits.size(), 2u);  // one committed checkpoint per step
  // Candidate victims: every host but the client for the crash/timer/
  // process tiers, the WAN link, and the client *only* as a daemon victim
  // (killing the daemon process is survivable; crashing the script's
  // machine is not a protocol scenario).
  bool has_node0 = false, has_wan = false, has_client_crash = false;
  bool has_daemon = false, has_proxy = false, has_worker = false;
  bool has_timer = false;
  for (const Injection& victim : explorer.candidate_victims()) {
    has_node0 |= victim.kind == Injection::Kind::crash &&
                 victim.victim == "node0";
    has_wan |= victim.kind == Injection::Kind::link &&
               victim.victim == "metro-wan";
    has_client_crash |= victim.kind == Injection::Kind::crash &&
                        victim.victim == "edge";
    has_daemon |= victim.kind == Injection::Kind::daemon &&
                  victim.victim == "edge";
    has_proxy |= victim.kind == Injection::Kind::proxy;
    has_worker |= victim.kind == Injection::Kind::worker;
    has_timer |= victim.kind == Injection::Kind::timer;
  }
  EXPECT_TRUE(has_node0);
  EXPECT_TRUE(has_wan);
  EXPECT_FALSE(has_client_crash);
  EXPECT_TRUE(has_daemon);
  EXPECT_TRUE(has_proxy);
  EXPECT_TRUE(has_worker);
  EXPECT_TRUE(has_timer);
}

TEST(Explore, VictimKindFilterRestrictsTheSet) {
  Options options;
  options.iterations = 2;
  options.victim_kinds = {Injection::Kind::daemon, Injection::Kind::proxy};
  Explorer explorer(triple_plummer(), options);
  ASSERT_FALSE(explorer.candidate_victims().empty());
  for (const Injection& victim : explorer.candidate_victims()) {
    EXPECT_TRUE(victim.kind == Injection::Kind::daemon ||
                victim.kind == Injection::Kind::proxy);
  }
}

TEST(Explore, DepthBoundedEnumerationFindsNoViolations) {
  // A budgeted single-fault slice of the full exploration (CI runs the
  // deeper sweep): every run must recover onto the golden trajectory.
  Options options;
  options.iterations = 2;
  options.max_faults = 1;
  options.max_schedules = 10;
  Explorer explorer(triple_plummer(), options);
  Explorer::Summary summary = explorer.explore();
  EXPECT_EQ(summary.schedules, 10);
  for (const Violation& violation : summary.violations) {
    ADD_FAILURE() << violation.schedule << ": " << violation.what;
  }
}

TEST(Explore, ReplayIsDeterministic) {
  // The one-line-repro property: the same schedule on a fresh testbed
  // lands on the same bits, twice.
  Options options;
  options.iterations = 2;
  Explorer explorer(triple_plummer(), options);
  Schedule schedule = parse_schedule("step.evolve@1#0=crash:node0");
  RunReport first = explorer.run_schedule(schedule);
  RunReport second = explorer.run_schedule(schedule);
  ASSERT_TRUE(first.completed) << first.error;
  ASSERT_TRUE(second.completed) << second.error;
  EXPECT_EQ(first.fired, 1);
  EXPECT_EQ(second.fired, 1);
  EXPECT_EQ(first.final_digest, second.final_digest);
  EXPECT_EQ(first.energy, second.energy);
  EXPECT_EQ(first.restarts, second.restarts);
  EXPECT_EQ(first.commits, second.commits);
  EXPECT_EQ(first.placement, second.placement);
  EXPECT_EQ(first.resume_hash, second.resume_hash);
  EXPECT_EQ(first.live_processes, second.live_processes);

  // And the recovered run is on the golden trajectory.
  std::vector<Violation> violations;
  explorer.check(schedule, first, violations);
  for (const Violation& violation : violations) {
    ADD_FAILURE() << violation.schedule << ": " << violation.what;
  }
}

TEST(Explore, RevivedWorkerIsRecoveredAgainAfterItsHostCrashes) {
  // A worker killed at iteration 0 is restarted in place by its daemon's
  // supervisor; at iteration 2 its host crashes. That second recovery must
  // close, re-place and restore the slot like any other: the in-place
  // revive belongs to the first recovery only.
  Options options;
  options.iterations = 3;
  Explorer explorer(triple_plummer(), options);
  Schedule schedule = parse_schedule(
      "step.evolve@0#0=worker:node0;step.evolve@2#0=crash:node0");
  RunReport report = explorer.run_schedule(schedule);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.fired, 2);
  EXPECT_EQ(report.restarts, 2);
  EXPECT_EQ(report.final_digest, explorer.golden().final_digest);
  std::vector<Violation> violations;
  explorer.check(schedule, report, violations);
  for (const Violation& violation : violations) {
    ADD_FAILURE() << violation.schedule << ": " << violation.what;
  }
}
