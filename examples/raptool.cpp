// raptool — command-line front end for the RAP-Track toolchain. Drives the
// same library API as the tests/benches on files, so the offline phase can
// be scripted:
//
//   raptool assemble  app.s img.bin            # RT-ISA -> flash image
//   raptool disasm    img.bin                  # annotated listing
//   raptool rewrite   app.s img.bin mani.bin   # offline phase (image+manifest)
//   raptool run       app.s [tickstep]         # execute on the simulator
//   raptool attest    app.s [tickstep]         # full RAP-Track session + verify
//   raptool info      app.s                    # CFG/loop/branch statistics
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "asm/assembler.hpp"
#include "cfg/loop_analysis.hpp"
#include "common/hex.hpp"
#include "rewrite/manifest_io.hpp"

using namespace raptrack;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const u8> bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct Loaded {
  Program program;
  Address entry;
  Address code_end;
};

Loaded load_source(const std::string& path) {
  Loaded loaded{assemble(read_file(path), apps::kAppBase), 0, 0};
  const auto entry = loaded.program.symbol("_start");
  const auto code_end = loaded.program.symbol("__code_end");
  if (!entry || !code_end) {
    throw Error("source must define _start and __code_end");
  }
  loaded.entry = *entry;
  loaded.code_end = *code_end;
  return loaded;
}

u32 parse_tickstep(int argc, char** argv, int index) {
  return index < argc ? static_cast<u32>(std::stoul(argv[index], nullptr, 0))
                      : 42u;
}

int cmd_assemble(const std::string& source, const std::string& out) {
  const Loaded loaded = load_source(source);
  write_file(out, loaded.program.bytes());
  std::printf("%s: %u bytes at %s, entry %s\n", out.c_str(),
              loaded.program.size(), hex32(loaded.program.base()).c_str(),
              hex32(loaded.entry).c_str());
  return 0;
}

int cmd_disasm(const std::string& image_path) {
  const std::string raw = read_file(image_path);
  Program program(apps::kAppBase,
                  std::vector<u8>(raw.begin(), raw.end()));
  std::fputs(disassemble(program).c_str(), stdout);
  return 0;
}

int cmd_rewrite(const std::string& source, const std::string& image_out,
                const std::string& manifest_out) {
  const Loaded loaded = load_source(source);
  const auto result = rewrite::rewrite_for_rap_track(
      loaded.program, loaded.entry, loaded.program.base(), loaded.code_end);
  write_file(image_out, result.program.bytes());
  write_file(manifest_out, rewrite::serialize_manifest(result.manifest));
  std::printf("image: %u -> %u bytes (%u slots, %u loop veneers)\n",
              result.original_bytes, result.rewritten_bytes, result.slot_count,
              result.veneer_count);
  std::map<std::string, u32> kinds;
  for (const auto& slot : result.manifest.slots) {
    ++kinds[rewrite::slot_kind_name(slot.kind)];
  }
  for (const auto& [kind, count] : kinds) {
    std::printf("  %-15s %u\n", kind.c_str(), count);
  }
  std::printf("MTBDR [%s, %s]  MTBAR [%s, %s]\n",
              hex32(result.manifest.mtbdr_base).c_str(),
              hex32(result.manifest.mtbdr_limit).c_str(),
              hex32(result.manifest.mtbar_base).c_str(),
              hex32(result.manifest.mtbar_limit).c_str());
  return 0;
}

int cmd_run(const std::string& source, u32 tick_step) {
  const Loaded loaded = load_source(source);
  sim::Machine machine;
  auto periph = std::make_shared<apps::Peripherals>();
  periph->tick_step = tick_step;
  periph->attach(machine);
  machine.load_program(loaded.program);
  machine.reset_cpu(loaded.entry);
  const auto halt = machine.run();
  std::printf("halt: %s after %llu instructions, %llu cycles\n",
              halt == cpu::HaltReason::Halted ? "clean" : "abnormal",
              (unsigned long long)machine.cpu().instructions_retired(),
              (unsigned long long)machine.cpu().cycles());
  if (const auto& fault = machine.cpu().fault()) {
    std::printf("fault: %s at %s (%s)\n", mem::fault_name(fault->type),
                hex32(fault->address).c_str(), fault->detail.c_str());
  }
  for (int r = 0; r < 8; ++r) {
    std::printf("  r%d = 0x%08x\n", r,
                machine.cpu().state().reg(static_cast<isa::Reg>(r)));
  }
  return halt == cpu::HaltReason::Halted ? 0 : 1;
}

int cmd_attest(const std::string& source, u32 tick_step) {
  const Loaded loaded = load_source(source);
  const auto rewritten = rewrite::rewrite_for_rap_track(
      loaded.program, loaded.entry, loaded.program.base(), loaded.code_end);

  verify::Verifier verifier(apps::demo_key());
  verifier.expect_rap(rewritten.program, rewritten.manifest, loaded.entry);
  const cfa::Challenge chal = verifier.fresh_challenge();

  sim::Machine machine;
  auto periph = std::make_shared<apps::Peripherals>();
  periph->tick_step = tick_step;
  periph->attach(machine);
  cfa::RapProver prover(rewritten.program, rewritten.manifest, loaded.entry,
                        apps::demo_key());
  const auto run = prover.attest(machine, chal);

  std::printf("run: %llu cycles, CF_Log %llu bytes, %u partial report(s)\n",
              (unsigned long long)run.metrics.exec_cycles,
              (unsigned long long)run.metrics.cflog_bytes,
              run.metrics.partial_reports + 1);
  const auto result = verifier.verify(chal, run.reports);
  std::printf("verification: %s\n",
              result.accepted() ? "ACCEPTED" : result.detail.c_str());
  std::printf("reconstructed %zu control-flow transfers\n",
              result.replay.events.size());
  for (const auto& finding : result.replay.findings) {
    std::printf("finding: %s\n", finding.description.c_str());
  }
  return result.accepted() ? 0 : 1;
}

int cmd_info(const std::string& source) {
  const Loaded loaded = load_source(source);
  const cfg::Cfg graph(loaded.program, loaded.entry, loaded.program.base(),
                       loaded.code_end);
  const auto analysis = cfg::analyze_loops(graph);
  u32 reachable = 0;
  for (const auto& [begin, block] : graph.blocks()) reachable += block.reachable;
  std::printf("code: %u bytes, %zu basic blocks (%u reachable), %zu roots\n",
              loaded.code_end - loaded.program.base(), graph.blocks().size(),
              reachable, graph.roots().size());
  std::printf("loops: %zu natural, %zu simple\n", analysis.loops.size(),
              analysis.simple_loops.size());
  u32 taken = 0, not_taken = 0, deterministic = 0, loop_cond = 0;
  for (const auto& [site, role] : analysis.bcc_roles) {
    switch (role) {
      case cfg::BccRole::LogTaken: ++taken; break;
      case cfg::BccRole::LogNotTaken: ++not_taken; break;
      case cfg::BccRole::Deterministic: ++deterministic; break;
      case cfg::BccRole::LoopCondition: ++loop_cond; break;
    }
  }
  std::printf("conditional branches: %u log-taken, %u log-not-taken, "
              "%u deterministic, %u loop-condition\n",
              taken, not_taken, deterministic, loop_cond);
  return 0;
}

int usage() {
  std::fputs(
      "usage:\n"
      "  raptool assemble <app.s> <image.bin>\n"
      "  raptool disasm   <image.bin>\n"
      "  raptool rewrite  <app.s> <image.bin> <manifest.bin>\n"
      "  raptool run      <app.s> [tickstep]\n"
      "  raptool attest   <app.s> [tickstep]\n"
      "  raptool info     <app.s>\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    if (command == "assemble" && argc >= 4) return cmd_assemble(argv[2], argv[3]);
    if (command == "disasm") return cmd_disasm(argv[2]);
    if (command == "rewrite" && argc >= 5) {
      return cmd_rewrite(argv[2], argv[3], argv[4]);
    }
    if (command == "run") return cmd_run(argv[2], parse_tickstep(argc, argv, 3));
    if (command == "attest") {
      return cmd_attest(argv[2], parse_tickstep(argc, argv, 3));
    }
    if (command == "info") return cmd_info(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raptool: %s\n", e.what());
    return 1;
  }
  return usage();
}
