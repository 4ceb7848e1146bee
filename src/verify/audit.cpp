#include "verify/audit.hpp"

#include <algorithm>
#include <cstdio>

#include "common/hex.hpp"

namespace raptrack::verify {

namespace {

const char* kind_label(isa::BranchKind kind) {
  switch (kind) {
    case isa::BranchKind::Direct: return "direct";
    case isa::BranchKind::DirectCall: return "call";
    case isa::BranchKind::Conditional: return "conditional";
    case isa::BranchKind::IndirectCall: return "indirect-call";
    case isa::BranchKind::IndirectJump: return "indirect-jump";
    case isa::BranchKind::Return: return "return";
    default: return "other";
  }
}

std::string symbol_for(const Program& program, Address addr) {
  for (const auto& [name, value] : program.symbols()) {
    if (value == addr) return name;
  }
  return "";
}

/// Shared audit core, parameterized over the slot→site reverse lookup:
/// a linear manifest scan for the legacy overload, the Deployment cache's
/// sorted index for the service path. `slot_containing(addr)` returns the
/// SlotRecord covering `addr`, or nullptr (always nullptr when there is no
/// RAP manifest — naive/TRACES deployments audit unmapped).
template <typename SlotLookup>
AuditReport audit_impl(const VerificationResult& result,
                       const Program& program, SlotLookup&& slot_containing,
                       size_t top_edges) {
  AuditReport report;
  report.accepted = result.accepted();
  report.verdict_class = result.verdict;
  report.gaps = result.gaps;
  report.chain_notes = result.chain_notes;
  report.partial_reconstruction = result.partial_reconstruction;
  if (result.accepted()) {
    report.verdict = "ACCEPTED: expected binary, complete benign path";
  } else if (!result.detail.empty()) {
    report.verdict =
        std::string(result.verdict == Verdict::Inconclusive ? "INCONCLUSIVE: "
                                                            : "REJECTED: ") +
        result.detail;
  } else {
    report.verdict = "REJECTED";
  }
  report.findings = result.replay.findings;
  report.evidence_packets = result.inputs.packets.size();
  report.evidence_loop_values = result.inputs.loop_values.size();
  report.total_transfers = result.replay.events.size();

  std::map<Address, FunctionActivity> functions;
  std::map<std::tuple<Address, Address, isa::BranchKind>, u64> edges;

  // Trampoline detours are an implementation artifact: the entry edge into
  // an MTBAR slot is dropped, and the slot's exit edge is reported at the
  // original site with the branch kind the *original* instruction had — the
  // audit speaks original-program addresses and semantics.
  const auto original_site = [&](Address source) -> Address {
    const auto* slot = slot_containing(source);
    return slot != nullptr ? slot->site : source;
  };
  const auto logical_kind = [&](const trace::OracleEvent& event)
      -> isa::BranchKind {
    const auto* slot = slot_containing(event.source);
    if (slot == nullptr) return event.kind;
    switch (slot->kind) {
      case rewrite::SlotKind::IndirectCall: return isa::BranchKind::IndirectCall;
      case rewrite::SlotKind::IndirectJump: return isa::BranchKind::IndirectJump;
      case rewrite::SlotKind::ReturnPop: return isa::BranchKind::Return;
      case rewrite::SlotKind::CondTaken:
      case rewrite::SlotKind::CondNotTaken:
      case rewrite::SlotKind::CondBoth:
        return isa::BranchKind::Conditional;
    }
    return event.kind;
  };

  for (const auto& event : result.replay.events) {
    if (slot_containing(event.destination) != nullptr) {
      continue;  // detour entry
    }
    const isa::BranchKind kind = logical_kind(event);
    ++report.transfers_by_kind[kind_label(kind)];
    const Address site = original_site(event.source);
    ++edges[{site, event.destination, kind}];

    if (kind == isa::BranchKind::DirectCall ||
        kind == isa::BranchKind::IndirectCall) {
      auto& fn = functions[event.destination];
      fn.entry = event.destination;
      ++fn.calls;
    } else if (kind == isa::BranchKind::Return) {
      // Attribute the return to the function containing the return site —
      // approximated by the nearest preceding call target.
      auto it = functions.upper_bound(site);
      if (it != functions.begin()) {
        --it;
        if (site >= it->first) ++it->second.returns;
      }
    }
  }

  for (auto& [entry, fn] : functions) {
    fn.label = symbol_for(program, entry);
    report.functions.push_back(fn);
  }
  std::sort(report.functions.begin(), report.functions.end(),
            [](const auto& a, const auto& b) { return a.calls > b.calls; });

  for (const auto& [key, count] : edges) {
    report.hottest_edges.push_back(
        {std::get<0>(key), std::get<1>(key), std::get<2>(key), count});
  }
  std::sort(report.hottest_edges.begin(), report.hottest_edges.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  if (report.hottest_edges.size() > top_edges) {
    report.hottest_edges.resize(top_edges);
  }
  return report;
}

}  // namespace

AuditReport audit_verification(const VerificationResult& result,
                               const Program& program,
                               const rewrite::Manifest* manifest,
                               size_t top_edges) {
  return audit_impl(
      result, program,
      [manifest](Address addr) -> const rewrite::SlotRecord* {
        return manifest != nullptr ? manifest->slot_containing(addr) : nullptr;
      },
      top_edges);
}

AuditReport audit_verification(const VerificationResult& result,
                               const Deployment& deployment,
                               size_t top_edges) {
  return audit_impl(
      result, deployment.program(),
      [&index = deployment.index()](Address addr) {
        return index.slot_containing(addr);
      },
      top_edges);
}

std::string format_audit(const AuditReport& report) {
  std::string out;
  char buf[160];
  const auto emit = [&](const char* text) {
    out += text;
    out += '\n';
  };

  emit("=== CFA audit report ===");
  std::snprintf(buf, sizeof buf, "verdict: %s", report.verdict.c_str());
  emit(buf);
  if (!report.gaps.empty()) {
    emit("chain gaps:");
    for (const auto& gap : report.gaps) {
      std::snprintf(buf, sizeof buf, "  reports %u..%u never arrived",
                    gap.first_missing,
                    gap.first_missing + gap.missing_count - 1);
      emit(buf);
    }
  }
  for (const auto& note : report.chain_notes) {
    std::snprintf(buf, sizeof buf, "note: %s", note.c_str());
    emit(buf);
  }
  if (report.partial_reconstruction) {
    emit("partial reconstruction of the surviving chain prefix follows");
  }
  std::snprintf(buf, sizeof buf,
                "evidence: %llu MTB packets, %llu loop-condition values",
                (unsigned long long)report.evidence_packets,
                (unsigned long long)report.evidence_loop_values);
  emit(buf);
  std::snprintf(buf, sizeof buf, "reconstructed transfers: %llu",
                (unsigned long long)report.total_transfers);
  emit(buf);
  for (const auto& [kind, count] : report.transfers_by_kind) {
    std::snprintf(buf, sizeof buf, "  %-14s %llu", kind.c_str(),
                  (unsigned long long)count);
    emit(buf);
  }
  if (!report.functions.empty()) {
    emit("functions (by call count):");
    for (const auto& fn : report.functions) {
      std::snprintf(buf, sizeof buf, "  %s %-16s calls=%llu returns=%llu",
                    hex32(fn.entry).c_str(),
                    fn.label.empty() ? "<anon>" : fn.label.c_str(),
                    (unsigned long long)fn.calls,
                    (unsigned long long)fn.returns);
      emit(buf);
    }
  }
  if (!report.hottest_edges.empty()) {
    emit("hottest edges:");
    for (const auto& edge : report.hottest_edges) {
      std::snprintf(buf, sizeof buf, "  %s -> %s  %-13s x%llu",
                    hex32(edge.source).c_str(),
                    hex32(edge.destination).c_str(), kind_label(edge.kind),
                    (unsigned long long)edge.count);
      emit(buf);
    }
  }
  if (!report.findings.empty()) {
    emit("findings:");
    for (const auto& finding : report.findings) {
      std::snprintf(buf, sizeof buf, "  at %s: %s",
                    hex32(finding.site).c_str(), finding.description.c_str());
      emit(buf);
    }
  }
  return out;
}

}  // namespace raptrack::verify
