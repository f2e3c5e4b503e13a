// Figure 12: the Figure 11 fat-tree case study (bench::fig11_case_study)
// under PFC vs buffer-based GFC. Paper parameters: XOFF 280 / XON 277 KB,
// B1 = 281 KB.
#include "bench_common.hpp"

using namespace gfc;

int main(int argc, char** argv) {
  return bench::fig11_case_study(
      argc, argv, "Figure 12: fat-tree case study, PFC vs buffer-based GFC",
      "Fig. 11/12, Sec 6.2.2",
      {"PFC (arrival-order switches)", runner::FcSetup::pfc(280'000, 277'000),
       net::SwitchArch::kOutputQueuedFifo},
      {"buffer-based GFC (fair crossbar)",
       runner::FcSetup::gfc_buffer(281'000, 300'000),
       net::SwitchArch::kCioqRoundRobin});
}
