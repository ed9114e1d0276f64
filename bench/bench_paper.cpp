// Regenerates the paper's tables and figures: bench_paper [--jobs N] <id>...|all
//
// Prints each named row of the figure table (bench/figures.hpp) at paper
// scale, in the order given ("all": table order), and checks its claims.
// `--jobs N` (or `--jobs=N`; 0 or "auto" = every hardware thread; default 1)
// fans each row's runs out over N threads; the output is byte-identical at
// any N. Exit status: 0 when every claim holds; 1 when one fails, with each
// failing figure and claim named on stderr; 2 on a usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/figures.hpp"
#include "exec/thread_pool.hpp"

namespace {

int usage(const std::string& error) {
  std::string ids;
  for (const hq::bench::Figure& f : hq::bench::figures()) ids += " " + f.id;
  std::fprintf(stderr,
               "error: %s\nusage: bench_paper [--jobs N] <id>...|all\nids:%s\n",
               error.c_str(), ids.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hq::bench;
  int jobs = 1;
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--jobs") {
      if (i + 1 == argc) return usage("--jobs needs a value");
      value = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      value = arg.substr(7);
    } else if (arg == "all") {
      for (const Figure& f : figures()) selected.push_back(&f);
      continue;
    } else if (const Figure* f = find_figure(arg)) {
      selected.push_back(f);
      continue;
    } else {
      return usage("unknown figure '" + arg + "'");
    }
    if (value == "auto") {
      jobs = 0;
    } else if (!value.empty() &&
               value.find_first_not_of("0123456789") == std::string::npos &&
               value.size() <= 4) {
      jobs = std::stoi(value);
    } else {
      return usage("--jobs takes a count or \"auto\", not '" + value + "'");
    }
  }
  if (selected.empty()) return usage("name a figure id or \"all\"");
  if (jobs == 0) jobs = hq::exec::ThreadPool::hardware_jobs();

  int status = 0;
  for (const Figure* f : selected) {
    const FigureRun run = f->run(Scale::paper(), jobs);
    std::fwrite(run.text.data(), 1, run.text.size(), stdout);
    std::fflush(stdout);
    for (const std::string& claim : run.failed) {
      std::fprintf(stderr, "bench_paper: %s: claim failed: %s\n",
                   f->id.c_str(), claim.c_str());
      status = 1;
    }
  }
  return status;
}
