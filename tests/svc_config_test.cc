// KvService's constructor contract: timing fields that would stall run()
// or break the client calendar's order are rejected up front, by name.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "svc/service.h"

namespace ftss {
namespace {

using svc::KvService;
using svc::SvcConfig;

SvcConfig small_config() {
  SvcConfig config;
  config.n = 3;
  config.clients = 10;
  config.horizon = 1000;
  return config;
}

// The message of the std::invalid_argument that constructing throws, or
// "" if it constructs.
std::string rejection(const SvcConfig& config) {
  try {
    KvService service(config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SvcConfigCheck, RejectsMalformedTiming) {
  for (const Time bad : {Time{0}, Time{-1}, Time{-50}}) {
    SvcConfig config = small_config();
    config.pump_interval = bad;
    EXPECT_NE(rejection(config).find("pump_interval"), std::string::npos)
        << "pump_interval = " << bad;

    config = small_config();
    config.think_min = bad;
    config.think_max = 10;
    EXPECT_NE(rejection(config).find("think_min"), std::string::npos)
        << "think_min = " << bad;
  }

  // The smallest legal values construct and run to the horizon.
  SvcConfig config = small_config();
  config.pump_interval = 1;
  config.think_min = 1;
  config.think_max = 1;
  EXPECT_EQ(rejection(config), "");
  KvService service(config);
  service.run();
  EXPECT_EQ(service.report().ran_until, config.horizon);
  EXPECT_GT(service.report().requests_completed, 0);
}

}  // namespace
}  // namespace ftss
