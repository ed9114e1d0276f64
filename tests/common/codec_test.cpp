// The config codec (common/codec.hpp), tested from its own tables:
//   * every row of every config table, changed alone, changes the canonical
//     text and the sweep grid key that text feeds;
//   * seeded random configs of every tabled type re-render to the same
//     text after a parse of their text;
//   * the text grammar's error paths.
// The member-count guard is compile-time: a table missing a row does not
// build.
#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exec/sweep.hpp"
#include "fleet/sweep.hpp"
#include "rodinia/registry.hpp"

namespace hq {
namespace {

using codec::Kind;

/// Value texts a scalar row may take, in preference order; Table and List
/// rows change through the rows of their nested tables.
template <typename T>
std::vector<std::string> candidates(const codec::Field<T>& f) {
  switch (f.kind) {
    case Kind::Int:
    case Kind::Hex: return {"1", "2", "7"};
    case Kind::Micros: return {"1.5", "2", "7"};
    case Kind::Double: return {"0.5", "0.25", "1.5", "2"};
    case Kind::Bool:
    case Kind::Gate: return {"0", "1"};
    case Kind::Text: return {"\"x\"", "\"y\""};
    case Kind::Enum: {
      std::vector<std::string> names;
      for (std::size_t i = 0; static_cast<double>(i) <= f.max; ++i) {
        names.push_back(f.name_at(i));
      }
      return names;
    }
    default: return {};
  }
}

template <typename T>
std::string render(const codec::Field<T>& f, const T& obj) {
  std::string out;
  f.render(f, obj, out);
  return out;
}

/// Sets row `f` of `obj` to a value with a different text; false when the
/// row has no scalar candidate that changes it.
template <typename T>
bool mutate(const codec::Field<T>& f, T& obj) {
  const std::string before = render(f, obj);
  for (const std::string& text : candidates(f)) {
    T copy = obj;
    if (f.parse(f, copy, text, nullptr) && render(f, copy) != before) {
      obj = std::move(copy);
      return true;
    }
  }
  return false;
}

/// One tabled object inside a grid G, named by its type.
template <typename G>
struct Site {
  std::string type;
  std::size_t rows;
  std::function<bool(G&, std::size_t)> mutate_row;
  std::function<std::string(const G&)> text;
  /// Inserts "type.key" for each row whose text differs between two grids.
  std::function<void(const G&, const G&, std::set<std::string>*)> mark;
};

template <typename G, typename T>
Site<G> site(std::string type, T& (*at)(G&)) {
  const auto get = [at](const G& g) -> const T& {
    return at(const_cast<G&>(g));
  };
  return {type, codec_fields(T{}).size(),
          [at](G& g, std::size_t i) {
            return mutate(codec_fields(T{})[i], at(g));
          },
          [get](const G& g) { return codec::to_text(get(g)); },
          [type, get](const G& a, const G& b, std::set<std::string>* moved) {
            for (const auto& f : codec_fields(T{})) {
              if (render(f, get(a)) != render(f, get(b))) {
                moved->insert(type + "." + f.key);
              }
            }
          }};
}

/// Changes every scalar row of every site alone and expects the site's
/// text and the grid key to move; records which rows of every site moved.
template <typename G, typename Key>
void expect_every_row_moves_the_key(const G& base,
                                    const std::vector<Site<G>>& sites,
                                    Key key, std::set<std::string>* moved) {
  const std::uint64_t base_key = key(base);
  for (const Site<G>& s : sites) {
    for (std::size_t i = 0; i < s.rows; ++i) {
      G g = base;
      if (!s.mutate_row(g, i)) continue;
      EXPECT_NE(s.text(g), s.text(base)) << s.type << " row " << i;
      EXPECT_NE(key(g), base_key) << s.type << " row " << i;
      for (const Site<G>& t : sites) t.mark(base, g, moved);
    }
  }
}

/// Every row of T must have moved in some mutation.
template <typename T>
void expect_all_rows_moved(const std::string& type,
                           const std::set<std::string>& moved) {
  for (const auto& f : codec_fields(T{})) {
    EXPECT_TRUE(moved.count(type + "." + f.key) == 1)
        << type << "." << f.key << " never changed the text";
  }
}

exec::SweepGrid sweep_grid() {
  exec::SweepGrid grid;
  grid.app_sets = {{"gaussian", "nn"}};
  grid.na = {4};
  grid.ns = {2};
  grid.base.fault_plan = fault::FaultPlan::zero();
  grid.params.size = 64;
  grid.params.iterations = 2;
  grid.params.seed = 5;
  return grid;
}

fleet::FleetSweepGrid fleet_grid() {
  fleet::FleetSweepGrid grid;
  serve::ServiceConfig& base = grid.base.base;
  rodinia::AppParams params;
  params.size = 64;
  base.classes = {{rodinia::make_app("gaussian", params), 0}};
  base.arrivals = {{kMillisecond, 0}};
  base.fault_plan = fault::FaultPlan::zero();
  grid.base.devices = {gpu::DeviceSpec::tesla_k20(),
                       gpu::DeviceSpec::tesla_k20()};
  grid.base.device_fault_plans = {fault::FaultPlan::zero(),
                                  fault::FaultPlan::zero()};
  return grid;
}

TEST(ConfigCodecTest, EveryRowOfEveryTableMovesTheTextAndTheGridKey) {
  using SG = exec::SweepGrid;
  using FG = fleet::FleetSweepGrid;
  std::set<std::string> moved;
  expect_every_row_moves_the_key<SG>(
      sweep_grid(),
      {site<SG>("harness", +[](SG& g) -> auto& { return g.base; }),
       site<SG>("device", +[](SG& g) -> auto& { return g.base.device; }),
       site<SG>("sensor", +[](SG& g) -> auto& { return g.base.sensor; }),
       site<SG>("fault", +[](SG& g) -> auto& { return g.base.fault_plan; }),
       site<SG>("retry", +[](SG& g) -> auto& { return g.base.retry; }),
       site<SG>("params", +[](SG& g) -> auto& { return g.params; })},
      [](const SG& g) {
        return exec::SweepRunner::grid_key(g, exec::SweepRunner::expand(g));
      },
      &moved);
  expect_every_row_moves_the_key<FG>(
      fleet_grid(),
      {site<FG>("fleet", +[](FG& g) -> auto& { return g.base; }),
       site<FG>("device", +[](FG& g) -> auto& { return g.base.devices[1]; }),
       site<FG>("breaker",
                +[](FG& g) -> auto& { return g.base.device_breaker; }),
       site<FG>("fault",
                +[](FG& g) -> auto& { return g.base.device_fault_plans[1]; }),
       site<FG>("service", +[](FG& g) -> auto& { return g.base.base; }),
       site<FG>("device", +[](FG& g) -> auto& { return g.base.base.device; }),
       site<FG>("class",
                +[](FG& g) -> auto& { return g.base.base.classes[0]; }),
       site<FG>("arrival",
                +[](FG& g) -> auto& { return g.base.base.arrivals[0]; }),
       site<FG>("controller",
                +[](FG& g) -> auto& { return g.base.base.controller; }),
       site<FG>("breaker", +[](FG& g) -> auto& { return g.base.base.breaker; }),
       site<FG>("fault",
                +[](FG& g) -> auto& { return g.base.base.fault_plan; }),
       site<FG>("retry", +[](FG& g) -> auto& { return g.base.base.retry; })},
      [](const FG& g) {
        return fleet::FleetSweep::grid_key(g, fleet::FleetSweep::expand(g));
      },
      &moved);

  expect_all_rows_moved<fw::HarnessConfig>("harness", moved);
  expect_all_rows_moved<gpu::DeviceSpec>("device", moved);
  expect_all_rows_moved<nvml::SensorOptions>("sensor", moved);
  expect_all_rows_moved<fault::FaultPlan>("fault", moved);
  expect_all_rows_moved<rt::RetryPolicy>("retry", moved);
  expect_all_rows_moved<rodinia::AppParams>("params", moved);
  expect_all_rows_moved<fleet::FleetConfig>("fleet", moved);
  expect_all_rows_moved<fault::CircuitBreaker::Config>("breaker", moved);
  expect_all_rows_moved<serve::ServiceConfig>("service", moved);
  expect_all_rows_moved<serve::ClassSpec>("class", moved);
  expect_all_rows_moved<serve::Arrival>("arrival", moved);
  expect_all_rows_moved<serve::OverloadController::Config>("controller",
                                                            moved);
}

// ------------------------------------------------------ random round trip

std::string quote_text(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Random value texts for a scalar row, tried in order until one parses.
template <typename T>
std::vector<std::string> random_texts(const codec::Field<T>& f, Rng& rng) {
  const std::uint64_t u = rng.next_u64();
  const double unit = rng.next_double();
  switch (f.kind) {
    case Kind::Int:
    case Kind::Hex:
      return {std::to_string(u), std::to_string(u % 100000),
              std::to_string(static_cast<int>(u % 7) - 1)};
    case Kind::Micros: {
      const std::uint64_t ns = u % 10'000'000'000ULL;
      return {std::to_string(ns / 1000) + "." +
              std::to_string(1000 + ns % 1000).substr(1)};
    }
    case Kind::Double:
      return {format_double(unit), format_double(1.0 + 4.0 * unit)};
    case Kind::Bool:
    case Kind::Gate: return {u % 4 == 0 ? "0" : "1"};
    case Kind::Text: {
      const std::string alphabet = "ab Z09,={}[]\"\\-";
      std::string s;
      for (std::uint64_t n = u % 9; n > 0; --n) {
        s += alphabet[rng.next_u64() % alphabet.size()];
      }
      return {quote_text(s)};
    }
    case Kind::Enum:
      return {f.name_at(u % (static_cast<std::size_t>(f.max) + 1))};
    default: return {};
  }
}

/// T with every scalar row drawn at random (nested rows stay default).
template <typename T>
T random_scalars(Rng& rng) {
  T obj{};
  for (const auto& f : codec_fields(obj)) {
    for (const std::string& text : random_texts(f, rng)) {
      if (f.parse(f, obj, text, nullptr)) break;
    }
  }
  return obj;
}

template <typename T>
std::vector<T> random_list(Rng& rng, T (*make)(Rng&)) {
  std::vector<T> out(rng.next_u64() % 4);
  for (T& item : out) item = make(rng);
  return out;
}

fw::HarnessConfig random_harness(Rng& rng) {
  auto c = random_scalars<fw::HarnessConfig>(rng);
  c.device = random_scalars<gpu::DeviceSpec>(rng);
  c.sensor = random_scalars<nvml::SensorOptions>(rng);
  c.fault_plan = random_scalars<fault::FaultPlan>(rng);
  c.retry = random_scalars<rt::RetryPolicy>(rng);
  return c;
}

serve::ServiceConfig random_service(Rng& rng) {
  auto c = random_scalars<serve::ServiceConfig>(rng);
  c.device = random_scalars<gpu::DeviceSpec>(rng);
  c.classes = random_list(rng, random_scalars<serve::ClassSpec>);
  c.arrivals = random_list(rng, random_scalars<serve::Arrival>);
  c.controller = random_scalars<serve::OverloadController::Config>(rng);
  c.breaker = random_scalars<fault::CircuitBreaker::Config>(rng);
  c.fault_plan = random_scalars<fault::FaultPlan>(rng);
  c.retry = random_scalars<rt::RetryPolicy>(rng);
  return c;
}

fleet::FleetConfig random_fleet(Rng& rng) {
  auto c = random_scalars<fleet::FleetConfig>(rng);
  c.base = random_service(rng);
  c.devices = random_list(rng, random_scalars<gpu::DeviceSpec>);
  c.device_breaker = random_scalars<fault::CircuitBreaker::Config>(rng);
  c.device_fault_plans = random_list(rng, random_scalars<fault::FaultPlan>);
  return c;
}

template <typename T>
void expect_round_trip(const T& config) {
  const std::string text = codec::to_text(config);
  T parsed{};
  std::string error;
  ASSERT_TRUE(codec::parse(text, &parsed, &error)) << error << "\n" << text;
  EXPECT_EQ(codec::to_text(parsed), text);
}

TEST(ConfigCodecTest, RandomConfigsOfEveryTableRoundTripThroughText) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    expect_round_trip(random_scalars<fault::FaultPlan>(rng));
    expect_round_trip(random_scalars<gpu::DeviceSpec>(rng));
    expect_round_trip(random_scalars<rt::RetryPolicy>(rng));
    expect_round_trip(random_scalars<nvml::SensorOptions>(rng));
    expect_round_trip(random_scalars<fault::CircuitBreaker::Config>(rng));
    expect_round_trip(random_scalars<serve::OverloadController::Config>(rng));
    expect_round_trip(random_scalars<rodinia::AppParams>(rng));
    expect_round_trip(random_scalars<serve::ClassSpec>(rng));
    expect_round_trip(random_scalars<serve::Arrival>(rng));
    expect_round_trip(random_harness(rng));
    expect_round_trip(random_service(rng));
    expect_round_trip(random_fleet(rng));
  }
}

// ------------------------------------------------------------- grammar

TEST(ConfigCodecTest, MalformedTextIsRejectedWithTheKeyPath) {
  const auto error_of = [](const std::string& text) {
    fleet::FleetConfig config;
    std::string error;
    EXPECT_FALSE(codec::parse(text, &config, &error)) << text;
    return error;
  };
  EXPECT_NE(error_of("no-such-key=1").find("unknown key 'no-such-key'"),
            std::string::npos);
  EXPECT_NE(error_of("copy-penalty").find("key=value"), std::string::npos);
  EXPECT_NE(error_of("devices=[{num-smx=x}]").find("devices: num-smx"),
            std::string::npos);
  EXPECT_NE(error_of("base={seed=-1}").find("base: seed"), std::string::npos);
  EXPECT_NE(error_of("devices=[{name=\"a}]").find("unbalanced"),
            std::string::npos);
  EXPECT_NE(error_of("placement=nearest").find("placement"),
            std::string::npos);
  EXPECT_NE(error_of("hedging=2").find("0 or 1"), std::string::npos);

  // An unset optional is `none`; a set one is its value.
  rodinia::AppParams params;
  params.size = 64;
  EXPECT_EQ(codec::to_text(params), "size=64,iterations=none,seed=none");
}

}  // namespace
}  // namespace hq
