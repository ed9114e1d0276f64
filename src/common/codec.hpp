// One field-table codec for configs and journal records (header-only,
// hq_common). See DESIGN.md, "One config codec".
//
// A struct is codec-visible through one table with a row per member, owned
// by the module that defines it and found by argument-dependent lookup:
//
//   std::span<const codec::Field<FaultPlan>> codec_fields(const FaultPlan&);
//
// A row is (key, kind, member path): `row<&FaultPlan::seed>("seed")`. The
// rows write and parse one canonical text, `key=value,key=value`, so the
// writer and the parser cannot drift apart, and grid keys hash that text,
// so no field can be left out of a key. The kind is inferred from the
// member type (Int, Double, Bool, Text, Enum, Table, List) except for Hex,
// Micros and Gate. An unset optional renders `none`; a `when_set` row
// renders only when its text differs from a default-constructed struct's.
// Row bounds are a field's only range: parse(), check() and the tools' flag
// tables apply them. table<T>(rows) is the member-count guard: a table
// missing a row, or with two rows over one member, does not compile.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/table.hpp"

namespace hq::codec {

/// Int: base 10, a sign only on signed members. Hex: u64 digests.
/// Micros: u64 ns written as us with up to 3 decimals (3000, 3000.125).
/// Double: shortest round-trip. Bool: 0/1. Text: double-quoted, with a
/// backslash before an inner quote or backslash. Enum: the enumerator's
/// name. Table: {k=v,...}. List: [{...},{...}]. Gate: a bool that, when
/// false, renders the whole table as the row's key (FaultPlan's
/// "disabled").
enum class Kind : std::uint8_t {
  Auto, Int, Hex, Micros, Double, Bool, Text, Enum, Table, List, Gate
};

/// How a row is written and what its parser accepts.
struct Spec {
  Kind kind = Kind::Auto;
  /// Bounds on a numeric value, inclusive unless `min_open`.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  /// The accepted values, for errors; accepts() words them by default.
  const char* what = nullptr;
  bool when_set = false;
  bool min_open = false;
};

/// Written so that NaN fails every bound.
inline bool in_bounds(const Spec& s, double v) {
  return (s.min_open ? v > s.min : v >= s.min) && v <= s.max;
}

/// What each kind accepts, for rows without their own `what`.
inline constexpr const char* kAccepts[] = {
    "", "an integer", "a hex integer", "a microsecond count (up to 3 decimals)",
    "a number", "0 or 1", "a quoted text", "a known name", "a table {...}",
    "a list [{...},...]", "0 or 1"};

/// The values `s` accepts: "an integer >= 1", "a number in (0, 1]".
inline std::string accepts(const Spec& s) {
  if (s.what != nullptr) return s.what;
  const std::string kind = kAccepts[int(s.kind)], lo = format_double(s.min);
  if (!std::isfinite(s.min)) return kind;
  if (!std::isfinite(s.max)) return kind + (s.min_open ? " > " : " >= ") + lo;
  return kind + " in " + (s.min_open ? "(" : "[") + lo + ", " +
         format_double(s.max) + "]";
}

/// One row of T's table: its Spec, key and the functions row() generates.
template <typename T>
struct Field : Spec {
  const char* key;
  /// The member path's spelling, e.g. "... [with auto ...Path =
  /// {&FaultPlan::seed}]": one string per path, compared by content.
  std::string_view member;
  /// Appends the member's value text.
  void (*render)(const Field&, const T&, std::string&);
  /// Parses `text` into the member; on failure fills *error (may be null)
  /// with a message naming the key.
  bool (*parse)(const Field&, T&, std::string_view text, std::string* error);
  /// Checks the member against the row's bounds (nested tables: theirs).
  bool (*check)(const Field&, const T&, std::string* error);
  const char* (*name_at)(std::size_t);  ///< Enum: enumerator i's name
};

template <typename T>
std::string to_text(const T& obj);
template <typename T>
bool parse(std::string_view text, T* obj, std::string* error);
template <typename T>
bool check(const T& obj, std::string* error);

namespace detail {

template <typename>
struct member_of;
template <typename C, typename V>
struct member_of<V C::*> {
  using owner = C;
};
template <auto First, auto...>
struct path_owner {
  using type = typename member_of<decltype(First)>::owner;
};
template <auto... Path>
using owner_t = typename path_owner<Path...>::type;

template <auto... Path>
auto& member(auto& obj) {
  return (obj.*....*Path);
}
template <auto... Path>
using value_t = std::remove_cvref_t<decltype(member<Path...>(
    std::declval<owner_t<Path...>&>()))>;

/// A member path's identity as text. The table guard compares these: the
/// addresses of distinct objects are not comparable in a constant
/// expression once GCC instruments for UBSan, strings are.
template <auto... Path>
consteval std::string_view member_path() {
  return std::source_location::current().function_name();
}

template <typename V>
inline constexpr bool kOptional = false;
template <typename V>
inline constexpr bool kOptional<std::optional<V>> = true;
template <typename V>
inline constexpr bool kVector = false;
template <typename V>
inline constexpr bool kVector<std::vector<V>> = true;

template <typename V>
consteval Kind kind_of() {
  if constexpr (kOptional<V>) return kind_of<typename V::value_type>();
  if constexpr (std::is_same_v<V, bool>) return Kind::Bool;
  if constexpr (std::is_enum_v<V>) return Kind::Enum;
  if constexpr (std::is_integral_v<V>) return Kind::Int;
  if constexpr (std::is_floating_point_v<V>) return Kind::Double;
  if constexpr (std::is_same_v<V, std::string>) return Kind::Text;
  if constexpr (kVector<V>) return Kind::List;
  return Kind::Table;
}

/// Converts to anything: the most of these T brace-initialises from is
/// T's member count.
struct AnyValue {
  template <typename V>
  operator V() const;
};
template <typename T, typename... A>
consteval std::size_t count_members() {
  if constexpr (requires { T{A{}..., AnyValue{}}; }) {
    return count_members<T, A..., AnyValue>();
  }
  return sizeof...(A);
}

inline bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// "3000.12" -> "3000120": a microsecond count as its ns digits.
inline bool micros_digits(std::string_view text, std::string* digits) {
  const std::size_t dot = std::min(text.find('.'), text.size());
  const std::size_t decimals = dot < text.size() ? text.size() - dot - 1 : 0;
  if (dot == 0 || decimals > 3 || dot + 1 == text.size()) return false;
  *digits = std::string(text.substr(0, dot)) +
            std::string(text.substr(std::min(dot + 1, text.size()))) +
            std::string(3 - decimals, '0');
  return digits->find_first_not_of("0123456789") == std::string::npos;
}

inline bool read_quoted(std::string_view text, std::string* out) {
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
    return false;
  }
  out->clear();
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    if (text[i] == '"') return false;
    if (text[i] == '\\' && ++i + 1 == text.size()) return false;
    *out += text[i];
  }
  return true;
}

/// Splits at commas outside quotes, braces and brackets; false when they
/// do not balance.
inline bool split_items(std::string_view text,
                        std::vector<std::string_view>* items) {
  int depth = 0;
  bool quoted = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      i += c == '\\' ? 1 : 0;
      quoted = c != '"';
    } else if (c == '"') {
      quoted = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth < 0) {
      return false;
    } else if (c == ',' && depth == 0) {
      items->push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  items->push_back(text.substr(start));
  return !quoted && depth == 0;
}

/// The text between `open` and a last `close`, or nullopt.
inline std::optional<std::string_view> inside(std::string_view text,
                                              char open, char close) {
  if (text.size() < 2 || text.front() != open || text.back() != close) {
    return std::nullopt;
  }
  return text.substr(1, text.size() - 2);
}

template <typename T, typename V>
void write_value(const Field<T>& f, const V& v, std::string& out) {
  if constexpr (kOptional<V>) {
    if (v) {
      write_value(f, *v, out);
    } else {
      out += "none";
    }
  } else if constexpr (std::is_same_v<V, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_enum_v<V>) {
    out += f.name_at(static_cast<std::size_t>(v));
  } else if constexpr (std::is_integral_v<V>) {
    char buf[24];
    const bool micros = f.kind == Kind::Micros;
    const auto r = std::to_chars(buf, buf + sizeof(buf), micros ? v / 1000 : v,
                                 f.kind == Kind::Hex ? 16 : 10);
    out.append(buf, r.ptr);
    if (micros && v % 1000 != 0) {  // ".125", ".12", ".1"
      std::string frac = std::to_string(1000 + v % 1000);
      frac[0] = '.';
      out += frac.substr(0, frac.find_last_not_of('0') + 1);
    }
  } else if constexpr (std::is_same_v<V, double>) {
    out += format_double(v);
  } else if constexpr (std::is_same_v<V, std::string>) {
    out += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  } else if constexpr (kVector<V>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? ",{" : "{") + to_text(v[i]) + '}';
    }
    out += ']';
  } else {
    out += '{' + to_text(v) + '}';
  }
}

/// Parses one value; a nested table's error goes to *nested.
template <typename T, typename V>
std::errc read_value(const Field<T>& f, V& v, std::string_view text,
                     std::string* nested) {
  constexpr std::errc kBad = std::errc::invalid_argument;
  if constexpr (kOptional<V>) {
    if (text == "none") {
      v.reset();
      return std::errc();
    }
    typename V::value_type inner{};
    const std::errc ec = read_value(f, inner, text, nested);
    if (ec == std::errc()) v = inner;
    return ec;
  } else if constexpr (std::is_same_v<V, bool>) {
    if (text != "0" && text != "1") return kBad;
    v = text == "1";
  } else if constexpr (std::is_enum_v<V>) {
    std::size_t i = 0;
    while (static_cast<double>(i) <= f.max && text != f.name_at(i)) ++i;
    if (static_cast<double>(i) > f.max) return kBad;
    v = static_cast<V>(i);
  } else if constexpr (std::is_arithmetic_v<V>) {
    std::string digits(text);
    if (f.kind == Kind::Micros && !micros_digits(text, &digits)) return kBad;
    const char* end = digits.data() + digits.size();
    V parsed{};
    std::from_chars_result r{};
    if constexpr (std::is_integral_v<V>) {
      r = std::from_chars(digits.data(), end, parsed,
                          f.kind == Kind::Hex ? 16 : 10);
    } else {
      r = std::from_chars(digits.data(), end, parsed);
    }
    if (r.ec != std::errc()) return r.ec;
    if (r.ptr != end || !in_bounds(f, double(parsed))) return kBad;
    v = parsed;
  } else if constexpr (std::is_same_v<V, std::string>) {
    if (!read_quoted(text, &v)) return kBad;
  } else if constexpr (kVector<V>) {
    const auto body = inside(text, '[', ']');
    std::vector<std::string_view> items;
    if (!body || !split_items(*body, &items)) return kBad;
    V parsed;
    for (const std::string_view item : items) {
      if (item.empty() && items.size() == 1) break;  // "[]"
      const auto table = inside(item, '{', '}');
      if (!table || !parse(*table, &parsed.emplace_back(), nested)) {
        return kBad;
      }
    }
    v = std::move(parsed);
  } else {
    const auto table = inside(text, '{', '}');
    if (!table || !parse(*table, &v, nested)) return kBad;
  }
  return std::errc();
}

template <typename T, typename V>
bool check_value(const Field<T>& f, const V& v, std::string* error) {
  if constexpr (kOptional<V>) {
    return !v || check_value(f, *v, error);
  } else if constexpr (kVector<V>) {
    return std::all_of(v.begin(), v.end(), [&](const auto& item) {
      return check_value(f, item, error);
    });
  } else if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
    if (in_bounds(f, double(v))) return true;
    std::string got;
    write_value(f, v, got);
    return fail(error, std::string(f.key) + " needs " + accepts(f) +
                           ", got '" + got + "'");
  } else if constexpr (std::is_class_v<V> && !std::is_same_v<V, std::string>) {
    std::string nested;
    return check(v, &nested) || fail(error, std::string(f.key) + ": " + nested);
  }
  return true;
}

template <auto... Path>
bool check_row(const Field<owner_t<Path...>>& f, const owner_t<Path...>& obj,
               std::string* error) {
  return check_value(f, member<Path...>(obj), error);
}

template <auto... Path>
void render_row(const Field<owner_t<Path...>>& f, const owner_t<Path...>& obj,
                std::string& out) {
  write_value(f, member<Path...>(obj), out);
}

template <auto... Path>
bool parse_row(const Field<owner_t<Path...>>& f, owner_t<Path...>& obj,
               std::string_view text, std::string* error) {
  std::string nested;
  const std::errc ec = read_value(f, member<Path...>(obj), text, &nested);
  if (ec == std::errc()) return true;
  const std::string key = f.key;
  const std::string got = ", got '" + std::string(text) + "'";
  if (!nested.empty()) return fail(error, key + ": " + nested);
  if (ec == std::errc::result_out_of_range) {
    return fail(error, key + " is out of range" + got);
  }
  return fail(error, key + " needs " + accepts(f) + got);
}

template <auto Name, typename E>
const char* enum_name_at(std::size_t i) {
  return Name(static_cast<E>(i));
}

}  // namespace detail

/// A row over a member, or over a member of a member (`row<&A::b, &B::c>`).
template <auto... Path>
consteval Field<detail::owner_t<Path...>> row(const char* key, Spec spec = {}) {
  using V = detail::value_t<Path...>;
  constexpr Kind inferred = detail::kind_of<V>();
  const Kind kind = spec.kind == Kind::Auto ? inferred : spec.kind;
  const bool u64 = std::is_same_v<V, std::uint64_t>;
  if (inferred == Kind::Enum ||
      !(kind == inferred || (kind == Kind::Gate && inferred == Kind::Bool) ||
        ((kind == Kind::Hex || kind == Kind::Micros) && u64))) {
    throw "codec row: the kind does not fit the member (enums: enum_row)";
  }
  spec.kind = kind;
  return {spec,
          key,
          detail::member_path<Path...>(),
          &detail::render_row<Path...>,
          &detail::parse_row<Path...>,
          &detail::check_row<Path...>,
          nullptr};
}

/// A row over an enum member named by `Name` (e.g. shed_policy_name), whose
/// enumerators are 0..Count-1.
template <auto Member, auto Name, std::size_t Count>
consteval Field<detail::owner_t<Member>> enum_row(const char* key) {
  return {Spec{.kind = Kind::Enum, .min = 0, .max = double(Count - 1)},
          key,
          detail::member_path<Member>(),
          &detail::render_row<Member>,
          &detail::parse_row<Member>,
          &detail::check_row<Member>,
          &detail::enum_name_at<Name, detail::value_t<Member>>};
}

/// Number of members of aggregate T.
template <typename T>
consteval std::size_t member_count() {
  return detail::count_members<T>();
}

/// The member-count guard: compiles only with `Members` rows (by default
/// one per member of T) over distinct members.
template <typename T, std::size_t Members = member_count<T>(), std::size_t N>
consteval std::array<Field<T>, N> table(const Field<T> (&rows)[N]) {
  static_assert(N == Members, "a codec table needs one row per member");
  std::array<Field<T>, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (rows[j].member == rows[i].member) throw "two rows, one member";
    }
    out[i] = rows[i];
  }
  return out;
}

/// The canonical text of a tabled struct.
template <typename T>
std::string to_text(const T& obj) {
  static const T fallback{};
  std::string out;
  for (const Field<T>& f : codec_fields(obj)) {
    std::string value;
    f.render(f, obj, value);
    if (f.kind == Kind::Gate) {
      if (value == "0") return f.key;
      continue;
    }
    if (f.when_set) {
      std::string unset;
      f.render(f, fallback, unset);
      if (value == unset) continue;
    }
    out += (out.empty() ? "" : ",") + std::string(f.key) + '=' + value;
  }
  return out;
}

/// Whether every row of `obj`, nested tables included, is within its
/// bounds; otherwise *error (may be null) names the key path.
template <typename T>
bool check(const T& obj, std::string* error) {
  const auto fields = codec_fields(obj);
  return std::all_of(fields.begin(), fields.end(), [&](const Field<T>& f) {
    return f.check(f, obj, error);
  });
}

/// Parses canonical text over a default-constructed T, its gate on (or off
/// for the gate's own key). Empty items are skipped and a later key wins.
template <typename T>
bool parse(std::string_view text, T* obj, std::string* error) {
  T parsed{};
  const auto fields = codec_fields(parsed);
  for (const Field<T>& f : fields) {
    if (f.kind != Kind::Gate) continue;
    const bool off = text == f.key;
    f.parse(f, parsed, off ? "0" : "1", nullptr);
    if (off) {
      *obj = std::move(parsed);
      return true;
    }
  }
  std::vector<std::string_view> items;
  if (!detail::split_items(text, &items)) {
    return detail::fail(error, "unbalanced quotes or brackets in '" +
                                   std::string(text) + "'");
  }
  for (const std::string_view item : items) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const auto match = std::find_if(
        fields.begin(), fields.end(), [&](const Field<T>& f) {
          return f.kind != Kind::Gate && item.substr(0, eq) == f.key;
        });
    if (eq == std::string_view::npos || eq == 0) {
      return detail::fail(error,
                          "expected key=value, got '" + std::string(item) + "'");
    }
    if (match == fields.end()) {
      return detail::fail(
          error, "unknown key '" + std::string(item.substr(0, eq)) + "'");
    }
    if (!match->parse(*match, parsed, item.substr(eq + 1), error)) {
      return false;
    }
  }
  *obj = std::move(parsed);
  return true;
}

}  // namespace hq::codec
