// Reproduces Figure 8: BER vs Es/N0 for hard, soft (3-bit adaptive), and
// multiresolution decoding (M = 4 and M = 8) at K = 5, L = 5K, R1 = 1,
// R2 = 3.
//
// Paper headline: averaged over the sweep, M=4 improves BER by ~64% and
// M=8 by ~82% relative to pure hard decision.
#include <cmath>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/ber.hpp"
#include "util/table.hpp"

using namespace metacore;

int main() {
  bench::print_header(
      "Figure 8: hard vs multiresolution vs soft decoding (K=5)", "Figure 8");

  comm::DecoderSpec base;
  base.code = comm::best_rate_half_code(5);
  base.traceback_depth = 25;
  base.low_res_bits = 1;
  base.high_res_bits = 3;
  base.quantization = comm::QuantizationMethod::AdaptiveSoft;

  comm::DecoderSpec hard = base;
  hard.kind = comm::DecoderKind::Hard;
  comm::DecoderSpec m4 = base;
  m4.kind = comm::DecoderKind::Multires;
  m4.num_high_res_paths = 4;
  comm::DecoderSpec m8 = m4;
  m8.num_high_res_paths = 8;
  comm::DecoderSpec soft = base;
  soft.kind = comm::DecoderKind::Soft;

  comm::BerRunConfig cfg;
  cfg.max_bits = bench::budget(1'000'000);
  cfg.min_bits = cfg.max_bits / 5;
  cfg.max_errors = 3'000;

  const std::vector<double> esn0{0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  util::TextTable table(
      {"Es/N0 dB", "hard", "multires M=4", "multires M=8", "soft (3-bit)"});
  double improvement_m4 = 0.0, improvement_m8 = 0.0;
  int counted = 0;
  std::vector<std::string> verdicts;
  bool shape_holds = true;
  for (double snr : esn0) {
    // The paper's order, worst BER first.
    const comm::BerPoint points[] = {comm::measure_ber(hard, snr, cfg),
                                     comm::measure_ber(m4, snr, cfg),
                                     comm::measure_ber(m8, snr, cfg),
                                     comm::measure_ber(soft, snr, cfg)};
    const double ber_hard = points[0].ber();
    const double ber_m4 = points[1].ber();
    const double ber_m8 = points[2].ber();
    table.add_row({util::format_double(snr, 1),
                   util::format_scientific(ber_hard, 2),
                   util::format_scientific(ber_m4, 2),
                   util::format_scientific(ber_m8, 2),
                   util::format_scientific(points[3].ber(), 2)});
    if (ber_hard > 0.0 && ber_m4 > 0.0 && ber_m8 > 0.0) {
      improvement_m4 += 1.0 - ber_m4 / ber_hard;
      improvement_m8 += 1.0 - ber_m8 / ber_hard;
      ++counted;
    }
    // Each neighbour pair in that order: '>' when the 95% Wilson intervals
    // are disjoint the expected way, '~' (a tie) when they overlap, and a
    // violation when they are disjoint the other way.
    const char* names[] = {"hard", "M=4", "M=8", "soft"};
    std::string order = names[0];
    bool holds = true;
    for (std::size_t i = 0; i + 1 < std::size(points); ++i) {
      const auto worse = points[i].errors.wilson();
      const auto better = points[i + 1].errors.wilson();
      if (worse.low > better.high) {
        order += " > ";
      } else if (better.low > worse.high) {
        order += " < ";
        holds = false;
      } else {
        order += " ~ ";
      }
      order += names[i + 1];
    }
    shape_holds = shape_holds && holds;
    verdicts.push_back("  " + util::format_double(snr, 1) + " dB: " + order +
                       (holds ? "  (holds)" : "  (VIOLATED)"));
  }
  table.print(std::cout);
  if (counted > 0) {
    std::cout << "\nAverage BER improvement over hard decision:\n"
              << "  M=4: " << util::format_percent(improvement_m4 / counted, 1)
              << "   (paper: 64%)\n"
              << "  M=8: " << util::format_percent(improvement_m8 / counted, 1)
              << "   (paper: 82%)\n";
  }
  std::cout << "\nShape check, hard > M=4 > M=8 > soft at each SNR point "
               "(~: 95% Wilson intervals overlap, a tie):\n";
  for (const auto& line : verdicts) std::cout << line << "\n";
  std::cout << "Shape: "
            << (shape_holds ? "no point violates the order"
                            : "the order is VIOLATED at some point")
            << ".\n";
  return 0;
}
