#include "analyze/scenario.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::analyze {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

bool fail(std::string* err, const std::string& message) {
  if (err != nullptr) *err = message;
  return false;
}

/// Strict spec integer: the whole of `s`, within [lo, hi]. On failure
/// sets *err to "`part` must be an integer in [lo, hi], got 's'".
bool parse_int(const std::string& s, long lo, long hi, const std::string& part,
               long* out, std::string* err) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi)
    return fail(err, part + " must be an integer in [" + std::to_string(lo) +
                         ", " + std::to_string(hi) + "], got '" + s + "'");
  *out = v;
  return true;
}

bool build_ring_scenario(const std::vector<std::string>& parts,
                         BuiltScenario* out, std::string* err) {
  long n = 3, hops = 2;
  if (parts.size() > 1 &&
      !parse_int(parts[1], 3, kMaxRingSwitches, "ring: N", &n, err))
    return false;
  if (parts.size() > 2 && !parse_int(parts[2], 1, n - 1, "ring: H", &hops, err))
    return false;
  const topo::RingInfo info =
      topo::build_ring(out->topo, static_cast<int>(n));
  out->routing = topo::ring_clockwise_routes(out->topo, info);
  for (long i = 0; i < n; ++i)
    out->flows.push_back({info.hosts[static_cast<std::size_t>(i)],
                          info.hosts[static_cast<std::size_t>((i + hops) % n)],
                          0});
  out->name = "ring:" + std::to_string(n) + ":" + std::to_string(hops);
  return true;
}

bool build_fattree_scenario(const std::vector<std::string>& parts,
                            BuiltScenario* out, std::string* err) {
  long k = 0;
  const std::string k_text = parts.size() > 1 ? parts[1] : "";
  if (!parse_int(k_text, 2, kMaxFatTreeK, "fattree: K", &k, err) ||
      k % 2 != 0)
    return fail(err, "fattree: K must be an even integer in [2, " +
                         std::to_string(kMaxFatTreeK) + "], got '" + k_text +
                         "' (e.g. fattree:4)");
  topo::build_fattree(out->topo, static_cast<int>(k));
  out->name = "fattree:" + std::to_string(k);

  std::uint64_t stress_seed = 0;
  if (parts.size() > 2) {
    const std::string& mod = parts[2];
    if (mod.rfind("seed=", 0) == 0) {
      long seed = 0;
      if (!parse_int(mod.substr(5), 1, std::numeric_limits<long>::max(),
                     "fattree: seed", &seed, err))
        return false;
      // The Table 1 sampling recipe: 5% failures from a k-salted stream.
      sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 +
                   static_cast<std::uint64_t>(k));
      topo::random_failures(out->topo, rng, 0.05);
      stress_seed = static_cast<std::uint64_t>(seed);
      out->name += ":seed=" + std::to_string(seed);
    } else if (mod.rfind("fail=", 0) == 0) {
      const auto sw_links = out->topo.switch_links();
      for (const std::string& tok : split(mod.substr(5), ',')) {
        long idx = 0;
        if (!parse_int(tok, 0, static_cast<long>(sw_links.size()) - 1,
                       "fattree: switch-link index", &idx, err))
          return false;
        out->topo.fail_link(sw_links[static_cast<std::size_t>(idx)]);
      }
      stress_seed = 1;
      out->name += ":" + mod;
    } else {
      return fail(err, "fattree: unknown modifier '" + mod + "'");
    }
  }
  out->routing = topo::compute_shortest_paths(out->topo);

  // With failures: condition on the flows that fill the witness cycle,
  // exactly as Table 1 does, so the report shows cycle activation.
  if (stress_seed != 0) {
    topo::BufferDependencyGraph g(out->topo);
    g.add_routing_closure(out->routing);
    const topo::CbdResult cbd = g.find_cycle();
    if (cbd.has_cbd) {
      sim::Rng rng(stress_seed * 7919 + static_cast<std::uint64_t>(k));
      const topo::CbdStress stress =
          topo::build_cbd_stress(out->topo, out->routing, cbd.cycle, rng);
      if (stress.covered)
        for (const auto& f : stress.flows)
          out->flows.push_back({f.src, f.dst, f.salt});
    }
  }
  return true;
}

bool build_incast_scenario(const std::vector<std::string>& parts,
                           BuiltScenario* out, std::string* err) {
  long n = 2;
  if (parts.size() > 1 &&
      !parse_int(parts[1], 1, kMaxIncastSenders, "incast: N", &n, err))
    return false;
  const topo::DumbbellInfo info =
      topo::build_dumbbell(out->topo, static_cast<int>(n));
  out->routing = topo::compute_shortest_paths(out->topo);
  for (const topo::NodeIndex s : info.senders)
    out->flows.push_back({s, info.receiver, 0});
  out->name = "incast:" + std::to_string(n);
  return true;
}

void build_loop2_scenario(BuiltScenario* out) {
  // H0 - S0 - S1 - H1, with the table toward H1 bouncing between the two
  // switches: the minimal routing loop (and, in the closure, the minimal
  // 2-link CBD).
  const topo::NodeIndex h0 = out->topo.add_host("H0");
  const topo::NodeIndex h1 = out->topo.add_host("H1");
  const topo::NodeIndex s0 = out->topo.add_switch("S0");
  const topo::NodeIndex s1 = out->topo.add_switch("S1");
  out->topo.add_link(h0, s0);
  out->topo.add_link(s0, s1);
  out->topo.add_link(s1, h1);
  topo::RoutingTable::Builder table(out->topo.node_count());
  table.begin_class({&h0, 1});
  table.set_row(h1, {s1});
  table.set_row(s0, {h0});
  table.set_row(s1, {s0});
  table.begin_class({&h1, 1});
  table.set_row(h0, {s0});
  table.set_row(s0, {s1});
  table.set_row(s1, {s0});  // the bounce: never delivers
  out->routing = std::move(table).finish();
  out->flows.push_back({h0, h1, 0});
  out->name = "loop2";
}

}  // namespace

bool build_scenario(const std::string& spec, BuiltScenario* out,
                    std::string* err) {
  const auto parts = split(spec, ':');
  if (parts.empty() || parts[0].empty())
    return fail(err, "empty scenario spec");
  if (parts[0] == "ring") return build_ring_scenario(parts, out, err);
  if (parts[0] == "fattree") return build_fattree_scenario(parts, out, err);
  if (parts[0] == "incast") return build_incast_scenario(parts, out, err);
  if (parts[0] == "loop2") {
    build_loop2_scenario(out);
    return true;
  }
  return fail(err, "unknown scenario '" + parts[0] +
                       "' (expected ring | fattree | incast | loop2)");
}

}  // namespace gfc::analyze
