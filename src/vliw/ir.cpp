#include "vliw/ir.hpp"

#include <algorithm>
#include <stdexcept>

namespace metacore::vliw {

std::string to_string(OpCode op) {
  switch (op) {
    case OpCode::Load: return "load";
    case OpCode::Store: return "store";
    case OpCode::Add: return "add";
    case OpCode::Sub: return "sub";
    case OpCode::And: return "and";
    case OpCode::Or: return "or";
    case OpCode::Xor: return "xor";
    case OpCode::Shift: return "shift";
    case OpCode::Compare: return "cmp";
    case OpCode::Select: return "select";
    case OpCode::Mul: return "mul";
    case OpCode::Branch: return "branch";
    case OpCode::Nop: return "nop";
  }
  return "?";
}

FuClass fu_class(OpCode op) {
  switch (op) {
    case OpCode::Load:
    case OpCode::Store:
      return FuClass::Mem;
    case OpCode::Mul:
      return FuClass::Mul;
    case OpCode::Branch:
      return FuClass::Branch;
    default:
      return FuClass::Alu;
  }
}

int default_latency(OpCode op) {
  switch (op) {
    case OpCode::Load:
      return 2;
    case OpCode::Mul:
      return 3;
    case OpCode::Store:
    case OpCode::Branch:
      return 1;
    default:
      return 1;
  }
}

int BasicBlock::count(FuClass cls) const {
  int n = 0;
  for (const auto& op : ops) {
    if (fu_class(op.op) == cls) ++n;
  }
  return n;
}

int Kernel::num_virtual_regs() const {
  int highest = -1;
  for (const auto& block : blocks) {
    for (const auto& op : block.ops) {
      highest = std::max(highest, op.dst);
      for (int src : op.srcs) highest = std::max(highest, src);
    }
  }
  return highest + 1;
}

int Kernel::static_ops() const {
  int n = 0;
  for (const auto& block : blocks) n += static_cast<int>(block.ops.size());
  return n;
}

double Kernel::dynamic_ops() const {
  double n = 0.0;
  for (const auto& block : blocks) {
    n += block.trip_count * static_cast<double>(block.ops.size());
  }
  return n;
}

void Kernel::validate() const {
  for (const auto& block : blocks) {
    if (block.trip_count < 0.0) {
      throw std::invalid_argument("Kernel: negative trip count in block '" +
                                  block.name + "'");
    }
    for (const auto& op : block.ops) {
      const bool produces = op.op != OpCode::Store && op.op != OpCode::Branch &&
                            op.op != OpCode::Nop;
      if (produces && op.dst < 0) {
        throw std::invalid_argument("Kernel: value op without destination in '" +
                                    block.name + "'");
      }
      if (!produces && op.dst >= 0) {
        throw std::invalid_argument(
            "Kernel: void op with a destination register in '" + block.name +
            "'");
      }
      for (int src : op.srcs) {
        if (src < 0) {
          throw std::invalid_argument("Kernel: negative source register in '" +
                                      block.name + "'");
        }
      }
    }
  }
}

std::string Kernel::to_string() const {
  std::string out = "kernel " + name + "\n";
  char buf[64];
  for (const auto& block : blocks) {
    std::snprintf(buf, sizeof(buf), "%.2f", block.trip_count);
    out += "  block " + block.name + " (trips/unit " + buf;
    if (block.recurrence_mii > 1) {
      out += ", recurrence MII ";
      out += std::to_string(block.recurrence_mii);
    }
    out += ")\n";
    for (const auto& op : block.ops) {
      out += "    ";
      if (op.dst >= 0) {
        out += 'r';
        out += std::to_string(op.dst);
        out += " = ";
      }
      out += metacore::vliw::to_string(op.op);
      for (std::size_t i = 0; i < op.srcs.size(); ++i) {
        out += i == 0 ? " r" : ", r";
        out += std::to_string(op.srcs[i]);
      }
      if (!op.tag.empty()) out += "    ; " + op.tag;
      out += "\n";
    }
  }
  return out;
}

BlockBuilder::BlockBuilder(std::string name, double trip_count) {
  block_.name = std::move(name);
  block_.trip_count = trip_count;
}

int BlockBuilder::emit(OpCode op, std::vector<int> srcs, std::string tag) {
  const int dst = next_reg_++;
  block_.ops.push_back({op, dst, std::move(srcs), std::move(tag)});
  return dst;
}

void BlockBuilder::emit_void(OpCode op, std::vector<int> srcs,
                             std::string tag) {
  block_.ops.push_back({op, -1, std::move(srcs), std::move(tag)});
}

int BlockBuilder::live_in() { return next_reg_++; }

BasicBlock BlockBuilder::build() && { return std::move(block_); }

}  // namespace metacore::vliw
