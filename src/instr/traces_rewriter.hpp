// TRACES-like instrumentation baseline (Caulfield et al., "TRACES:
// TEE-based runtime auditing for commodity embedded systems" — the paper's
// state-of-the-art comparator). Every non-deterministic branch is routed
// through a veneer that performs an SVC into the Secure World, which logs
// the branch outcome before the (relocated) original instruction executes.
// The same state-of-the-art CF_Log optimizations the paper credits TRACES
// with are implemented: packed taken/not-taken bits for conditional
// branches, run-length encoding of repeated indirect targets, loop-condition
// logging for simple loops, and full elision of statically deterministic
// loops.
//
// The cost structure is the instrumentation-based one the paper measures:
// one Non-Secure -> Secure context-switch round trip per logged event.
#pragma once

#include <optional>
#include <vector>

#include "asm/program.hpp"
#include "cfg/loop_analysis.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace raptrack::instr {

enum class VeneerKind : u8 {
  IndirectCall,
  IndirectJump,
  ReturnPop,
  Conditional,    ///< logs a packed direction bit
  LoopCondition,  ///< logs the loop-condition value (shared optimization)
};

struct VeneerRecord {
  VeneerKind kind = VeneerKind::IndirectCall;
  Address veneer_base = 0;
  Address veneer_end = 0;     ///< exclusive
  Address svc_addr = 0;       ///< the SVC instruction inside the veneer
  Address site = 0;           ///< original instruction address
  isa::Instruction original;  ///< original (or displaced preheader) instruction
  Address taken_target = 0;   ///< Conditional: original taken target
  Address resume = 0;         ///< Conditional: fall-through resume address
  std::optional<cfg::SimpleLoop> loop;  ///< LoopCondition only
};

struct TracesManifest {
  Address code_begin = 0;
  Address code_end = 0;
  Address image_end = 0;
  std::vector<VeneerRecord> veneers;
  std::map<Address, cfg::SimpleLoop> deterministic_loops;
};

struct TracesOptions {
  bool loop_optimization = true;
  bool deterministic_loop_elision = true;
  std::vector<Address> extra_cfg_roots;
};

struct TracesResult {
  Program program;
  TracesManifest manifest;
  u32 original_bytes = 0;
  u32 rewritten_bytes = 0;
  u32 veneer_count = 0;
};

TracesResult rewrite_for_traces(const Program& original, Address entry,
                                Address code_begin, Address code_end,
                                const TracesOptions& options = {});

}  // namespace raptrack::instr
