// Textual reproduction of the paper's preliminary figures:
//  Figure 2 — the rate-1/2, K=3 convolutional encoder,
//  Figure 3 — the 4-state Viterbi trellis diagram,
//  Figure 4 — the 3-bit adaptive soft quantizer's decision levels,
// plus the generated VLIW kernel listing — the inspectable analog of the
// source the paper fed to Trimaran.
#include <iostream>

#include "bench_common.hpp"
#include "comm/quantizer.hpp"
#include "comm/trellis.hpp"
#include "util/table.hpp"
#include "vliw/viterbi_kernel.hpp"

using namespace metacore;

int main() {
  bench::print_header("Figures 2-4: encoder, trellis, adaptive quantizer",
                      "Figures 2, 3, 4");

  const comm::CodeSpec code = comm::best_rate_half_code(3);
  std::cout << "--- Figure 2 ---\n" << comm::describe_encoder(code) << "\n";

  const comm::Trellis trellis(code);
  std::cout << "--- Figure 3 ---\n" << trellis.to_string() << "\n";

  std::cout << "--- Figure 4 ---\n";
  const double sigma = 0.6;
  const comm::Quantizer quantizer(comm::QuantizationMethod::AdaptiveSoft, 3,
                                  1.0, sigma);
  std::cout << "3-bit adaptive quantizer at noise sigma " << sigma
            << ": decision step D = " << quantizer.step() << " ("
            << comm::kAdaptiveDecisionFactor << " * sigma)\n";
  util::TextTable levels({"received range", "level", "metric vs 0",
                          "metric vs 1"});
  for (int level = 0; level < quantizer.levels(); ++level) {
    const double lo = (level - 4) * quantizer.step();
    const double hi = (level - 3) * quantizer.step();
    std::string range;
    const std::string lo_text = util::format_double(lo, 2);
    const std::string hi_text = util::format_double(hi, 2);
    if (level == 0) {
      range = "(-inf, " + hi_text + ")";
    } else if (level == quantizer.levels() - 1) {
      range = "[" + lo_text + ", +inf)";
    } else {
      range = "[" + lo_text + ", " + hi_text + ")";
    }
    levels.add_row({range, std::to_string(level),
                    std::to_string(quantizer.branch_metric(level, 0)),
                    std::to_string(quantizer.branch_metric(level, 1))});
  }
  levels.print(std::cout);

  std::cout << "\n--- Generated VLIW kernel (Trimaran-substitute input) ---\n";
  comm::DecoderSpec spec;
  spec.code = code;
  spec.traceback_depth = 15;
  spec.kind = comm::DecoderKind::Multires;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = 2;
  std::cout << vliw::build_viterbi_kernel(spec).to_string();
  return 0;
}
