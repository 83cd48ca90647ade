#include "comm/trellis.hpp"

#include <stdexcept>
#include <string>

namespace metacore::comm {

Trellis::Trellis(CodeSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  num_states_ = spec_.num_states();
  symbols_per_step_ = spec_.rate_denominator();
  next_state_.resize(static_cast<std::size_t>(num_states_) * 2);
  output_.resize(static_cast<std::size_t>(num_states_) * 2);

  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(num_states_); ++s) {
    for (int bit = 0; bit < 2; ++bit) {
      // Re-run the encoder combinational logic for this (state, input); the
      // encoder exposes no state setter by design, so replicate it here.
      const int k = spec_.constraint_length;
      const std::uint32_t reg =
          (static_cast<std::uint32_t>(bit) << (k - 1)) | s;
      std::uint32_t out = 0;
      for (std::size_t j = 0; j < spec_.generators.size(); ++j) {
        std::uint32_t acc = reg & spec_.generators[j];
        // Parity via popcount-free fold keeps this header-independent.
        acc ^= acc >> 16;
        acc ^= acc >> 8;
        acc ^= acc >> 4;
        acc ^= acc >> 2;
        acc ^= acc >> 1;
        out |= (acc & 1u) << j;
      }
      const std::uint32_t next =
          (s >> 1) | (static_cast<std::uint32_t>(bit) << (k - 2));
      next_state_[(s << 1) | static_cast<std::uint32_t>(bit)] = next;
      output_[(s << 1) | static_cast<std::uint32_t>(bit)] = out;
    }
  }

  // Build the predecessor view. Exactly two branches enter each state in a
  // binary-input trellis; assert that while filling.
  predecessors_.resize(static_cast<std::size_t>(num_states_));
  std::vector<int> fill(static_cast<std::size_t>(num_states_), 0);
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(num_states_); ++s) {
    for (int bit = 0; bit < 2; ++bit) {
      const std::uint32_t to = next_state(s, bit);
      if (fill[to] >= 2) {
        throw std::logic_error("Trellis: state has more than two predecessors");
      }
      predecessors_[to][static_cast<std::size_t>(fill[to]++)] = {
          s, bit, output_symbols(s, bit)};
    }
  }
  for (int count : fill) {
    if (count != 2) {
      throw std::logic_error("Trellis: state lacks two predecessors");
    }
  }

  // Flatten the predecessor view into butterfly-ordered SoA arrays for the
  // decoder ACS kernels.
  const std::size_t branches = static_cast<std::size_t>(num_states_) * 2;
  pred_state_.resize(branches);
  pred_symbols_.resize(branches);
  pred_bit_.resize(branches);
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(num_states_); ++s) {
    for (std::size_t b = 0; b < 2; ++b) {
      const Predecessor& pred = predecessors_[s][b];
      pred_state_[(s << 1) | b] = pred.from_state;
      pred_symbols_[(s << 1) | b] = pred.symbols;
      pred_bit_[(s << 1) | b] = static_cast<std::uint8_t>(pred.input_bit);
    }
  }
}

std::string Trellis::to_string() const {
  std::string out = "trellis K=" + std::to_string(spec_.constraint_length) +
                    " G=(" + spec_.generators_octal() + "), " +
                    std::to_string(num_states_) + " states\n";
  auto bits_of = [&](std::uint32_t word, int n) {
    std::string text;
    for (int j = n - 1; j >= 0; --j) {
      text += static_cast<char>('0' + ((word >> j) & 1u));
    }
    return text;
  };
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(num_states_); ++s) {
    out += "  S" + bits_of(s, spec_.constraint_length - 1) + ":";
    for (int bit = 0; bit < 2; ++bit) {
      out += "  --" + std::to_string(bit) + "/" +
             bits_of(output_symbols(s, bit), symbols_per_step_) + "--> S" +
             bits_of(next_state(s, bit), spec_.constraint_length - 1);
    }
    out += "\n";
  }
  return out;
}

std::string describe_encoder(const CodeSpec& spec) {
  spec.validate();
  std::string out = "convolutional encoder: rate 1/" +
                    std::to_string(spec.rate_denominator()) + ", K=" +
                    std::to_string(spec.constraint_length) + "\n";
  out += "  registers: [input";
  for (int r = 1; r < spec.constraint_length; ++r) {
    out += ", R" + std::to_string(r);
  }
  out += "]\n";
  for (std::size_t g = 0; g < spec.generators.size(); ++g) {
    out += "  output " + std::to_string(g) + " = XOR of taps {";
    bool first = true;
    for (int pos = spec.constraint_length - 1; pos >= 0; --pos) {
      if ((spec.generators[g] >> pos) & 1u) {
        if (!first) out += ", ";
        first = false;
        const int reg = spec.constraint_length - 1 - pos;
        if (reg == 0) {
          out += "input";
        } else {
          out += 'R';
          out += std::to_string(reg);
        }
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace metacore::comm
