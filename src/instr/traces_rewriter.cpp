#include "instr/traces_rewriter.hpp"

#include <algorithm>

#include "cfg/cfg.hpp"
#include "common/hex.hpp"
#include "isa/semantics.hpp"
#include "tz/secure_monitor.hpp"

namespace raptrack::instr {

using cfg::BccRole;
using isa::BranchKind;
using isa::Instruction;
using isa::Op;

namespace {

bool displaceable_verbatim(const Instruction& instr) {
  return isa::branch_kind(instr) == BranchKind::None && instr.op != Op::SVC;
}

}  // namespace

TracesResult rewrite_for_traces(const Program& original, Address entry,
                                Address code_begin, Address code_end,
                                const TracesOptions& options) {
  TracesResult result{.program = original};
  result.original_bytes = original.size();
  Program& program = result.program;

  const cfg::Cfg graph(program, entry, code_begin, code_end,
                       options.extra_cfg_roots);
  cfg::LoopAnalysis loops = cfg::analyze_loops(graph);
  if (!options.deterministic_loop_elision || !options.loop_optimization) {
    for (auto& [site, role] : loops.bcc_roles) {
      const bool demote_det =
          !options.deterministic_loop_elision && role == BccRole::Deterministic;
      const bool demote_opt =
          !options.loop_optimization && role == BccRole::LoopCondition;
      if (demote_det || demote_opt) role = BccRole::LogTaken;
    }
  }

  struct Planned {
    VeneerKind kind;
    Address site;
    Instruction original;
    std::optional<cfg::SimpleLoop> loop;
  };
  std::vector<Planned> planned;

  for (Address addr = code_begin; addr < code_end; addr += 4) {
    const auto decoded = program.instruction_at(addr);
    if (!decoded) continue;
    const Instruction instr = *decoded;
    if (instr.op == Op::SVC) {
      throw Error("traces: application code may not contain SVC at " + hex32(addr));
    }
    // BX LR is not instrumented: the verifier resolves it from the link
    // register BL set, so nothing else may write LR.
    if (isa::writes_lr(instr)) {
      throw Error("traces: explicit LR write at " + hex32(addr) +
                  " violates the return-determinism convention");
    }
    switch (isa::branch_kind(instr)) {
      case BranchKind::IndirectCall:
        planned.push_back({VeneerKind::IndirectCall, addr, instr, {}});
        break;
      case BranchKind::IndirectJump:
        planned.push_back({VeneerKind::IndirectJump, addr, instr, {}});
        break;
      case BranchKind::Return:
        if (instr.op == Op::POP) {
          planned.push_back({VeneerKind::ReturnPop, addr, instr, {}});
        }
        break;
      case BranchKind::Conditional: {
        const BccRole role = loops.bcc_roles.at(addr);
        if (role == BccRole::Deterministic) break;
        if (role == BccRole::LoopCondition) {
          const auto& simple = loops.simple_loops.at(addr);
          const auto displaced = program.instruction_at(simple.preheader_instr);
          if (displaced && displaceable_verbatim(*displaced)) {
            planned.push_back({VeneerKind::LoopCondition, simple.preheader_instr,
                               *displaced, simple});
            break;
          }
          // Not displaceable: instrument the branch per-iteration instead.
        }
        planned.push_back({VeneerKind::Conditional, addr, instr, {}});
        break;
      }
      default:
        break;
    }
  }

  // Guard against double-patching a site.
  {
    std::vector<Address> sites;
    for (const auto& p : planned) sites.push_back(p.site);
    std::sort(sites.begin(), sites.end());
    if (std::adjacent_find(sites.begin(), sites.end()) != sites.end()) {
      throw Error("traces: conflicting instrumentation sites");
    }
  }

  // Emit veneers.
  for (const auto& p : planned) {
    const Address veneer_base = program.end();
    std::vector<u32> words;
    VeneerRecord record;
    record.kind = p.kind;
    record.veneer_base = veneer_base;
    record.site = p.site;
    record.original = p.original;
    record.loop = p.loop;

    switch (p.kind) {
      case VeneerKind::IndirectCall:
        // [SVC; BX rm] — the BL at the site set LR already.
        record.svc_addr = veneer_base;
        words.push_back(isa::encode(
            isa::make_svc(static_cast<u8>(tz::Service::kTracesLogBranch))));
        words.push_back(isa::encode(isa::make_reg_branch(Op::BX, p.original.rm)));
        break;
      case VeneerKind::IndirectJump:
      case VeneerKind::ReturnPop:
        record.svc_addr = veneer_base;
        words.push_back(isa::encode(
            isa::make_svc(static_cast<u8>(tz::Service::kTracesLogBranch))));
        words.push_back(isa::encode(p.original));
        break;
      case VeneerKind::Conditional: {
        // [SVC; Bcc taken_target; B fall-through]
        record.svc_addr = veneer_base;
        record.taken_target = isa::branch_target(p.original, p.site);
        record.resume = p.site + 4;
        words.push_back(isa::encode(
            isa::make_svc(static_cast<u8>(tz::Service::kTracesLogBranch))));
        Instruction bcc = p.original;
        bcc.imm = isa::branch_offset(veneer_base + 4, record.taken_target);
        words.push_back(isa::encode(bcc));
        words.push_back(isa::encode(
            isa::make_branch(Op::B, isa::branch_offset(veneer_base + 8, record.resume))));
        break;
      }
      case VeneerKind::LoopCondition: {
        // [displaced; SVC; B header]
        words.push_back(isa::encode(p.original));
        record.svc_addr = veneer_base + 4;
        words.push_back(isa::encode(isa::make_svc(
            static_cast<u8>(tz::Service::kTracesLogLoopCondition))));
        words.push_back(isa::encode(isa::make_branch(
            Op::B, isa::branch_offset(veneer_base + 8, p.loop->header))));
        break;
      }
    }
    program.append_words(words);
    record.veneer_end = program.end();
    result.manifest.veneers.push_back(record);
  }

  // Patch sites.
  for (const auto& record : result.manifest.veneers) {
    switch (record.kind) {
      case VeneerKind::IndirectCall:
        program.set_instruction(record.site,
                                isa::make_branch(Op::BL, isa::branch_offset(
                                                             record.site,
                                                             record.veneer_base)));
        break;
      default:
        program.set_instruction(record.site,
                                isa::make_branch(Op::B, isa::branch_offset(
                                                            record.site,
                                                            record.veneer_base)));
        break;
    }
  }

  result.manifest.code_begin = code_begin;
  result.manifest.code_end = code_end;
  result.manifest.image_end = program.end();
  for (const auto& [site, simple] : loops.simple_loops) {
    if (loops.bcc_roles.at(site) == BccRole::Deterministic) {
      result.manifest.deterministic_loops[site] = simple;
    }
  }
  result.veneer_count = static_cast<u32>(result.manifest.veneers.size());
  result.rewritten_bytes = program.size();
  return result;
}

}  // namespace raptrack::instr
