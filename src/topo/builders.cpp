#include "topo/builders.hpp"

#include <cassert>
#include <string>

namespace gfc::topo {

namespace {
std::string idx_name(const char* prefix, int i) {
  // Built via += : GCC 12's -O3 -Wrestrict misfires on prefix + suffix
  // string concatenation (PR105651).
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}
}  // namespace

RingInfo build_ring(Topology& topo, int n_switches) {
  assert(n_switches >= 3);
  RingInfo info;
  for (int i = 0; i < n_switches; ++i)
    info.hosts.push_back(topo.add_host(idx_name("H", i), /*pod=*/i));
  for (int i = 0; i < n_switches; ++i)
    info.switches.push_back(topo.add_switch(idx_name("S", i), /*layer=*/1, i));
  for (int i = 0; i < n_switches; ++i) {
    topo.add_link(info.hosts[static_cast<std::size_t>(i)],
                  info.switches[static_cast<std::size_t>(i)]);
    topo.add_link(info.switches[static_cast<std::size_t>(i)],
                  info.switches[static_cast<std::size_t>((i + 1) % n_switches)]);
  }
  return info;
}

NodeIndex FatTreeInfo::host(int pod, int idx) const {
  const int per_pod = k * k / 4;
  return hosts[static_cast<std::size_t>(pod * per_pod + idx)];
}

FatTreeInfo build_fattree(Topology& topo, int k) {
  assert(k >= 2 && k % 2 == 0);
  FatTreeInfo info;
  info.k = k;
  const int half = k / 2;
  // Hosts first: ids 0 .. k^3/4-1 match the paper's H labels.
  for (int p = 0; p < k; ++p)
    for (int i = 0; i < half * half; ++i)
      info.hosts.push_back(
          topo.add_host(idx_name("H", p * half * half + i), p));
  for (int p = 0; p < k; ++p)
    for (int e = 0; e < half; ++e)
      info.edges.push_back(
          topo.add_switch(idx_name("E", p * half + e), /*layer=*/1, p));
  for (int p = 0; p < k; ++p)
    for (int a = 0; a < half; ++a)
      info.aggs.push_back(
          topo.add_switch(idx_name("A", p * half + a), /*layer=*/2, p));
  for (int c = 0; c < half * half; ++c)
    info.cores.push_back(topo.add_switch(idx_name("C", c), /*layer=*/3, -1));

  for (int p = 0; p < k; ++p) {
    for (int e = 0; e < half; ++e) {
      const NodeIndex edge = info.edge(p, e);
      for (int h = 0; h < half; ++h)
        topo.add_link(info.host(p, e * half + h), edge);
      for (int a = 0; a < half; ++a) topo.add_link(edge, info.agg(p, a));
    }
    // Agg a of any pod connects to cores [a*half, (a+1)*half).
    for (int a = 0; a < half; ++a)
      for (int j = 0; j < half; ++j)
        topo.add_link(info.agg(p, a),
                      info.cores[static_cast<std::size_t>(a * half + j)]);
  }
  return info;
}

DumbbellInfo build_dumbbell(Topology& topo, int n_senders) {
  DumbbellInfo info;
  for (int i = 0; i < n_senders; ++i)
    info.senders.push_back(topo.add_host(idx_name("H", i + 1)));
  info.receiver = topo.add_host(idx_name("H", n_senders + 1));
  info.sw = topo.add_switch("S0");
  for (NodeIndex h : info.senders) topo.add_link(h, info.sw);
  topo.add_link(info.receiver, info.sw);
  return info;
}

}  // namespace gfc::topo
