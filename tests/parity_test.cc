// The sim-vs-real parity harness, end-to-end: one spec runs on the
// discrete-event simulator and on PosixRuntime over loopback, and the
// report must come back clean — identical backend-neutral metric shape,
// exact packet/delivery counters, goodput inside the declared band.
// Where the OS forbids sockets the posix stage records a skip and the
// report only reflects the sim run. The netem stage is requested via
// RMC_PARITY_NETEM=1 (the ci.sh posix-parity lane sets it); without
// tc/CAP_NET_ADMIN it records a skip, never a failure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/parity.h"

namespace rmc {
namespace {

// Port plan: this file owns 48400..48499 on loopback (run_parity's
// default block is 48300, the posix_loopback bench uses 48600/48700,
// posix_runtime_test 48800).
constexpr std::uint16_t kBasePort = 48400;

bool netem_requested_by_env() {
  const char* v = std::getenv("RMC_PARITY_NETEM");
  return v != nullptr && std::string(v) == "1";
}

std::string describe(const harness::ParityReport& report) {
  std::string out;
  for (const std::string& f : report.failures) out += "\n  failure: " + f;
  for (const std::string& k : report.missing_in_posix) out += "\n  missing on posix: " + k;
  for (const std::string& k : report.missing_in_sim) out += "\n  missing on sim: " + k;
  return out;
}

TEST(ParityTest, LoopbackRunMatchesSimulator) {
  harness::ParitySpec spec;
  spec.base_port = kBasePort;
  spec.message_bytes = 150'000;
  spec.try_netem = netem_requested_by_env();

  const harness::ParityReport report = harness::run_parity(spec);
  EXPECT_TRUE(report.sim.completed) << describe(report);
  if (!report.posix_ran) GTEST_SKIP() << "sockets unavailable; sim-only run";

  EXPECT_TRUE(report.ok) << describe(report);
  EXPECT_TRUE(report.posix.completed) << describe(report);
  EXPECT_TRUE(report.missing_in_posix.empty()) << describe(report);
  EXPECT_TRUE(report.missing_in_sim.empty()) << describe(report);
  EXPECT_EQ(report.sim.data_packets_sent, report.posix.data_packets_sent);
  EXPECT_EQ(report.posix.messages_delivered, spec.n_receivers);
  if (report.netem_requested && report.netem_applied) {
    EXPECT_TRUE(report.netem_delivered) << describe(report);
  }

  // The posix run must carry the backend tier the sim run cannot have.
  EXPECT_NE(report.posix.metrics.find_counter("posix.datagrams_sent"), nullptr);
  EXPECT_EQ(report.sim.metrics.find_counter("posix.datagrams_sent"), nullptr);

  // The report serializes to JSON (the bench artifact embeds it).
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos) << json;
}

TEST(ParityTest, InvalidConfigFailsClosed) {
  harness::ParitySpec spec;
  spec.base_port = kBasePort + 32;  // unused; the run never opens sockets
  spec.protocol.window_size = 0;    // invalid: validate() must reject it
  const harness::ParityReport report = harness::run_parity(spec);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("invalid protocol config"), std::string::npos);
}

// A failure message is free text: a tab or another control character in
// it must be escaped, or to_json() stops being JSON.
TEST(ParityTest, ReportJsonEscapesControlCharacters) {
  harness::ParityReport report;
  report.failures.push_back("a\tb\x01" "c\"d\\e");
  const std::string json = report.to_json();
  EXPECT_NE(json.find(R"("failures": ["a\tb\u0001c\"d\\e"])"), std::string::npos) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
}

}  // namespace
}  // namespace rmc
