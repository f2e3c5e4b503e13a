// Figure 13: the Figure 11 fat-tree case study (bench::fig11_case_study)
// under CBFC vs time-based GFC. Paper parameters: feedback period
// T = 52.4 us, B0 = 159 KB.
#include "bench_common.hpp"

using namespace gfc;

int main(int argc, char** argv) {
  return bench::fig11_case_study(
      argc, argv, "Figure 13: fat-tree case study, CBFC vs time-based GFC",
      "Fig. 11/13, Sec 6.2.2",
      {"CBFC (arrival-order switches)", runner::FcSetup::cbfc(sim::us(52.4)),
       net::SwitchArch::kOutputQueuedFifo},
      {"time-based GFC (fair crossbar)",
       runner::FcSetup::gfc_time(159'000, 300'000, sim::us(52.4)),
       net::SwitchArch::kCioqRoundRobin});
}
