// Generative corpus of silent-rejoin programs for the "rewriter leaves no
// ambiguity" property test. Every program is a parameterized leaf whose
// rare-alarm conditional would be ambiguous under taken-edge-only logging,
// because the non-alarm return (BX LR) is unmonitored: the alarm packet
// could belong to ANY dynamic instance in the current unmonitored call run.
// The rewriter must give that conditional a CondBoth slot.
//
// The grid varies three structural axes plus a seed:
//   * nesting depth   — calls reach the leaf through 0..2 wrapper
//     functions (PUSH {lr} / POP {pc} frames). Each wrapper return is
//     monitored, so depth also controls the *width* of each ambiguity
//     window (packet-free call runs between logged returns);
//   * alarm density   — the leaf counter resets on alarm, so the alarm
//     conditional fires every `alarm_every`-th call, repeatedly;
//   * loop shape      — what the alarm arm burns steps on: a counted
//     spin (statically-deterministic simple loop), a nested two-level
//     loop, or straight-line code;
//   * seed            — perturbs call counts and spin bounds, so equal
//     grid points still produce distinct programs.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace raptrack::gen {

struct GenParams {
  int depth = 1;        ///< 1..3: 1 = _start calls the leaf directly
  int alarm_every = 4;  ///< leaf counter period between alarm firings
  int loop_shape = 0;   ///< 0 = counted spin, 1 = nested loop, 2 = straight
  u64 seed = 0;         ///< perturbs call counts and loop bounds
};

/// Stable label for test/diagnostic output.
inline std::string corpus_name(const GenParams& p) {
  return "gen_d" + std::to_string(p.depth) + "_a" +
         std::to_string(p.alarm_every) + "_s" + std::to_string(p.loop_shape) +
         "_r" + std::to_string(p.seed);
}

/// Per-level call counts: {calls in _start, calls in f1, calls in f2}.
/// Totals stay in the 16..48 leaf-call range so the whole grid remains
/// fast enough for the sanitizer legs.
struct CorpusCalls {
  int top = 0;
  int mid = 0;
  int inner = 0;
};

inline CorpusCalls corpus_calls(const GenParams& p) {
  const int v = static_cast<int>(p.seed);
  switch (p.depth) {
    case 1:
      return {16 + (v % 4) * 8, 0, 0};
    case 2:
      return {3, 6 + v % 3, 0};
    default:
      return {2, 3, 5 + v % 3};
  }
}

/// RT-ISA source for one grid point. Structure (depth 3 shown):
///   _start -> f1 (xN) -> f2 (xM) -> check (xK)
/// Wrappers save LR on the stack (the rewriter forbids explicit LR
/// writes) and return via monitored POP {pc}; the leaf's non-alarm path
/// returns via unmonitored BX LR, which is what makes the alarm
/// conditional ambiguous across the calls of one wrapper invocation.
inline std::string corpus_source(const GenParams& p) {
  const CorpusCalls calls = corpus_calls(p);
  const int spin = 24 + (static_cast<int>(p.seed) % 4) * 12;
  std::string s = R"asm(
.equ RES,     0x20200000
.equ COUNTER, 0x20200040

_start:
    li r3, =COUNTER
    movi r0, #0
    str r0, [r3, #0]
    movi r5, #0
)asm";
  const char* top_callee = p.depth > 1 ? "f1" : "check";
  for (int i = 0; i < calls.top; ++i) {
    s += "    bl ";
    s += top_callee;
    s += "\n";
  }
  s += R"asm(    li r1, =RES
    str r5, [r1, #0]
    hlt
)asm";
  if (p.depth > 1) {
    s += "\nf1:\n    push {lr}\n";
    const char* mid_callee = p.depth > 2 ? "f2" : "check";
    for (int i = 0; i < calls.mid; ++i) {
      s += "    bl ";
      s += mid_callee;
      s += "\n";
    }
    s += "    pop {pc}\n";
  }
  if (p.depth > 2) {
    s += "\nf2:\n    push {lr}\n";
    for (int i = 0; i < calls.inner; ++i) s += "    bl check\n";
    s += "    pop {pc}\n";
  }
  s += R"asm(
check:
    ldr r1, [r3, #0]
    addi r1, r1, #1
    str r1, [r3, #0]
    cmp r1, #)asm";
  s += std::to_string(p.alarm_every);
  s += R"asm(
    beq alarm
    bx lr
alarm:
    addi r5, r5, #1
    movi r1, #0
    str r1, [r3, #0]
)asm";
  switch (p.loop_shape) {
    case 0:
      s += "    movi r7, #0\nspin:\n    addi r7, r7, #1\n    cmp r7, #";
      s += std::to_string(spin);
      s += "\n    blt spin\n";
      break;
    case 1:
      s +=
          "    movi r6, #0\nouter:\n    movi r7, #0\ninner:\n"
          "    addi r7, r7, #1\n    cmp r7, #10\n    blt inner\n"
          "    addi r6, r6, #1\n    cmp r6, #3\n    blt outer\n";
      break;
    default:
      s +=
          "    addi r7, r5, #3\n    addi r7, r7, #5\n"
          "    addi r7, r7, #7\n    addi r7, r7, #9\n";
      break;
  }
  s += R"asm(    push {lr}
    pop {pc}
__code_end:
)asm";
  return s;
}

/// The full parameter grid: 3 depths x 3 alarm densities x 3 loop shapes
/// x 8 seeds = 216 programs (the acceptance floor is 200).
inline std::vector<GenParams> corpus_grid() {
  std::vector<GenParams> grid;
  for (const int depth : {1, 2, 3}) {
    for (const int alarm : {4, 8, 16}) {
      for (const int shape : {0, 1, 2}) {
        for (u64 seed = 0; seed < 8; ++seed) {
          grid.push_back({depth, alarm, shape, seed});
        }
      }
    }
  }
  return grid;
}

}  // namespace raptrack::gen
