// Runs a shell command for the tests that drive the built tools and
// captures its stdout (stderr too when the command redirects it there) and
// its exit status.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace hq::testing {

struct CommandOutcome {
  int exit_code = -1;  ///< -1 when the command did not exit normally
  std::string output;
};

inline CommandOutcome run_command(const std::string& command) {
  CommandOutcome outcome;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    outcome.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

}  // namespace hq::testing
