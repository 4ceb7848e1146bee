// RT-ISA opcode space. The ISA is a fixed-width 32-bit encoding with
// ARMv8-M Thumb semantics: it keeps the control-flow idioms RAP-Track cares
// about (BL/BX/BLX, POP {…,PC}, LDR into PC, conditional branches with
// NZCV flags) while staying trivially decodable.
//
// Encoding layout (bits [31:24] = opcode, remaining fields per format):
//   AluReg : rd[23:20] rn[19:16] rm[15:12]          S=bit 0
//   AluImm : rd[23:20] rn[19:16] S=bit12            imm12[11:0] (signed)
//   Mov16  : rd[23:20] imm16[15:0]                  (MOVI zero-extends, MOVT top)
//   MemImm : rd[23:20] rn[19:16] imm12[11:0]        (signed byte offset)
//   MemReg : rd[23:20] rn[19:16] rm[15:12] sh[11:8] (offset = rm << sh)
//   RegList: mask16[15:0]  (bit i = Ri; bit14 = LR; bit15 = PC)
//   Branch : imm24[23:0]   signed word offset from pc+4
//   CondBr : cond[23:20] imm20[19:0] signed word offset from pc+4
//   RegBr  : rm[15:12]
//   Sys    : imm8[7:0]
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace raptrack::isa {

enum class Op : u8 {
  // System.
  NOP = 0x00,
  HLT = 0x01,   ///< end of program (simulator halt)
  BKPT = 0x02,  ///< breakpoint / debug trap
  SVC = 0x03,   ///< supervisor call -> Secure World gateway (TrustZone model)

  // Moves.
  MOVI = 0x10,  ///< rd = zero_extend(imm16)
  MOVT = 0x11,  ///< rd[31:16] = imm16
  MOV = 0x12,   ///< rd = rm
  MVN = 0x13,   ///< rd = ~rm

  // ALU, register operand.
  ADD = 0x20, SUB = 0x21, RSB = 0x22, MUL = 0x23,
  UDIV = 0x24, SDIV = 0x25,
  AND = 0x26, ORR = 0x27, EOR = 0x28,
  LSL = 0x29, LSR = 0x2a, ASR = 0x2b,

  // ALU, immediate operand.
  ADDI = 0x30, SUBI = 0x31, RSBI = 0x32,
  ANDI = 0x33, ORRI = 0x34, EORI = 0x35,
  LSLI = 0x36, LSRI = 0x37, ASRI = 0x38,

  // Compares (always set flags).
  CMP = 0x40, CMPI = 0x41, CMN = 0x42, TST = 0x43, TSTI = 0x44,

  // Memory.
  LDR = 0x50, STR = 0x51,
  LDRB = 0x52, STRB = 0x53,
  LDRH = 0x54, STRH = 0x55,
  LDRR = 0x56,  ///< rd = [rn + (rm << sh)]  (rd may be PC: indirect jump)
  STRR = 0x57,

  // Stack.
  PUSH = 0x60, POP = 0x61,  ///< POP with PC bit set is a return/indirect jump

  // Branches.
  B = 0x70,     ///< direct branch
  BCC = 0x71,   ///< conditional direct branch
  BL = 0x72,    ///< direct call (LR = return address)
  BX = 0x73,    ///< indirect branch to rm (BX LR = leaf return)
  BLX = 0x74,   ///< indirect call to rm
};

/// Operand format family; drives encode/decode and the assembler grammar.
enum class Format : u8 {
  Sys,      // NOP/HLT/BKPT/SVC
  Mov16,    // MOVI/MOVT
  AluReg,   // MOV/MVN/ADD/.../ASR, CMP/CMN/TST
  AluImm,   // ADDI/.../ASRI, CMPI/TSTI
  MemImm,   // LDR/STR/LDRB/...
  MemReg,   // LDRR/STRR
  RegList,  // PUSH/POP
  Branch,   // B/BL
  CondBr,   // BCC
  RegBr,    // BX/BLX
};

struct OpInfo {
  Op op;
  std::string_view mnemonic;
  Format format;
};

/// Table lookup: metadata for a decoded opcode byte; nullopt if invalid.
std::optional<OpInfo> op_info(u8 opcode_byte);

/// Reverse lookup by mnemonic (without condition suffix). nullopt if unknown.
std::optional<OpInfo> op_info(std::string_view mnemonic);

constexpr Format format_of(Op op) {
  switch (op) {
    case Op::NOP: case Op::HLT: case Op::BKPT: case Op::SVC:
      return Format::Sys;
    case Op::MOVI: case Op::MOVT:
      return Format::Mov16;
    case Op::MOV: case Op::MVN:
    case Op::ADD: case Op::SUB: case Op::RSB: case Op::MUL:
    case Op::UDIV: case Op::SDIV:
    case Op::AND: case Op::ORR: case Op::EOR:
    case Op::LSL: case Op::LSR: case Op::ASR:
    case Op::CMP: case Op::CMN: case Op::TST:
      return Format::AluReg;
    case Op::ADDI: case Op::SUBI: case Op::RSBI:
    case Op::ANDI: case Op::ORRI: case Op::EORI:
    case Op::LSLI: case Op::LSRI: case Op::ASRI:
    case Op::CMPI: case Op::TSTI:
      return Format::AluImm;
    case Op::LDR: case Op::STR: case Op::LDRB: case Op::STRB:
    case Op::LDRH: case Op::STRH:
      return Format::MemImm;
    case Op::LDRR: case Op::STRR:
      return Format::MemReg;
    case Op::PUSH: case Op::POP:
      return Format::RegList;
    case Op::B: case Op::BL:
      return Format::Branch;
    case Op::BCC:
      return Format::CondBr;
    case Op::BX: case Op::BLX:
      return Format::RegBr;
  }
  return Format::Sys;
}

constexpr bool is_compare(Op op) {
  return op == Op::CMP || op == Op::CMPI || op == Op::CMN || op == Op::TST ||
         op == Op::TSTI;
}

constexpr bool is_load(Op op) {
  return op == Op::LDR || op == Op::LDRB || op == Op::LDRH || op == Op::LDRR;
}

constexpr u32 kInstrBytes = 4;  ///< every RT-ISA instruction is one word

}  // namespace raptrack::isa
