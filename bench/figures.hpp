// The paper's evaluation as one table: a row per table, figure or ablation.
//
// Each row runs its grid of simulated experiments, renders the rows and
// series the paper reports, and checks its claim rows: the paper's shapes,
// each a short text plus a predicate over the same results. Absolute times
// differ from the authors' testbed (this is a simulator); the shapes are the
// claim. `bench_paper` prints the rows at paper scale, and `figures_test`
// runs every row at smoke scale and checks every claim.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "rodinia/registry.hpp"

namespace hq::bench {

/// The inputs a row's harness runs use.
struct Scale {
  rodinia::AppParams params;     ///< gaussian, needle and srad
  rodinia::AppParams nn_params;  ///< nn
  /// Delay between app launches; 0 keeps the harness default.
  DurationNs launch_stagger = 0;
  /// NA of the headline runs, which always use paper-size inputs: its claims
  /// ({nn, needle} gains most, memory sync does not hurt) are about the
  /// paper's inputs, where Fan2 and srad saturate the device.
  int headline_na = 32;

  /// The paper's inputs: what `bench_paper` prints.
  static Scale paper();
  /// Miniature inputs (size 128, 10000 nn records) and a 5 us launch
  /// stagger: the small inputs transfer quickly, so contention appears only
  /// when launches are nearly simultaneous. The headline runs at NA = 8.
  static Scale smoke();
};

/// One row's output at one scale.
struct FigureRun {
  std::string text;                 ///< what the row prints
  std::vector<std::string> failed;  ///< the text of each claim that fails
};

struct Figure {
  std::string id;
  std::vector<std::string> claims;  ///< the text of each claim row
  /// Runs the row's grid at `scale` over `jobs` threads, renders it and
  /// checks its claims. Results are consumed in grid order, so the text is
  /// byte-identical at any job count.
  std::function<FigureRun(const Scale& scale, int jobs)> run;
};

/// Every row in table order: Tables I and III, Figs. 1-10, the headline
/// summary, then the ablations.
const std::vector<Figure>& figures();

/// The row named `id`, or null.
const Figure* find_figure(std::string_view id);

}  // namespace hq::bench
