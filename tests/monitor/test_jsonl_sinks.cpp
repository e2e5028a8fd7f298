// Stop-flush contract of the metrics JSONL sink: a run's final metrics
// snapshot must land in the stream via monitor.stop(), with no explicit
// render call after the run (the bug CsvSink's stop-flush fixed for CSV).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "experiments/lirtss.h"
#include "monitor/report.h"
#include "obs/metrics.h"

namespace netqos::mon {
namespace {

// One poll interval (2s) plus margin: a single completed poll round.
constexpr SimTime kOnePollRun = seconds(3);

TEST(JsonlSinks, MetricsSnapshotFlushedByStop) {
  obs::MetricsRegistry registry;
  exp::TestbedOptions options;
  options.metrics = &registry;
  exp::LirtssTestbed bed(options);
  bed.watch("S1", "N1");

  std::ostringstream out;
  MetricsJsonlSink sink(bed.monitor(), registry, out);
  bed.run_until(kOnePollRun);

  // Nothing is written while the monitor runs — the snapshot is the
  // stop-time state, not a stream.
  EXPECT_TRUE(out.str().empty());

  bed.monitor().stop();
  const std::string jsonl = out.str();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_NE(jsonl.find("\"metric\":\"netqos_agent_polls_total\""),
            std::string::npos);
  // Every line is one JSON object.
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(JsonlSinks, StopWithoutPollStillWritesRegisteredSeries) {
  // Even a zero-length run flushes whatever the registry holds — an
  // empty-but-valid file beats a missing one for artifact collectors.
  obs::MetricsRegistry registry;
  exp::TestbedOptions options;
  options.metrics = &registry;
  exp::LirtssTestbed bed(options);
  bed.watch("S1", "N1");

  std::ostringstream out;
  MetricsJsonlSink sink(bed.monitor(), registry, out);
  bed.monitor().start();
  bed.monitor().stop();
  EXPECT_NE(out.str().find("\"metric\":"), std::string::npos);
}

}  // namespace
}  // namespace netqos::mon
