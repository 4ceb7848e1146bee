#include "rewrite/manifest_io.hpp"

#include <string>

namespace raptrack::rewrite {

namespace {

constexpr u32 kMagic = 0x5250'414d;  // "RPAM"
/// v2 added SlotKind::CondBoth. v1 manifests are refused whole: their
/// rewriter could leave ambiguous slots, which the greedy replay does not
/// search through.
constexpr u32 kVersion = 2;

class Writer {
 public:
  void u8_value(u8 v) { out_.push_back(v); }
  void u32_value(u32 v) {
    out_.push_back(static_cast<u8>(v));
    out_.push_back(static_cast<u8>(v >> 8));
    out_.push_back(static_cast<u8>(v >> 16));
    out_.push_back(static_cast<u8>(v >> 24));
  }
  void i32_value(i32 v) { u32_value(static_cast<u32>(v)); }
  void instruction(const isa::Instruction& in) { u32_value(isa::encode(in)); }

  std::vector<u8> take() { return std::move(out_); }

 private:
  std::vector<u8> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const u8> data) : data_(data) {}

  u8 u8_value() {
    if (pos_ + 1 > data_.size()) throw Error("manifest truncated");
    return data_[pos_++];
  }
  u32 u32_value() {
    if (pos_ + 4 > data_.size()) throw Error("manifest truncated");
    const u32 v = static_cast<u32>(data_[pos_]) |
                  (static_cast<u32>(data_[pos_ + 1]) << 8) |
                  (static_cast<u32>(data_[pos_ + 2]) << 16) |
                  (static_cast<u32>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }
  i32 i32_value() { return static_cast<i32>(u32_value()); }
  isa::Instruction instruction() {
    const auto decoded = isa::decode(u32_value());
    if (!decoded) throw Error("manifest contains an undecodable instruction");
    return *decoded;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const u8> data_;
  size_t pos_ = 0;
};

void write_simple_loop(Writer& w, const cfg::SimpleLoop& loop) {
  w.u32_value(loop.header);
  w.u32_value(loop.bcc_site);
  w.u8_value(loop.forward_exit ? 1 : 0);
  w.u8_value(isa::index(loop.iterator));
  w.i32_value(loop.step);
  w.i32_value(loop.bound);
  w.u8_value(static_cast<u8>(loop.cond));
  w.u32_value(loop.preheader_instr);
  w.u8_value(loop.constant_init ? 1 : 0);
  w.i32_value(loop.constant_init.value_or(0));
}

cfg::SimpleLoop read_simple_loop(Reader& r) {
  cfg::SimpleLoop loop;
  loop.header = r.u32_value();
  loop.bcc_site = r.u32_value();
  loop.forward_exit = r.u8_value() != 0;
  loop.iterator = isa::reg_from_index(r.u8_value());
  loop.step = r.i32_value();
  loop.bound = r.i32_value();
  loop.cond = static_cast<isa::Cond>(r.u8_value());
  loop.preheader_instr = r.u32_value();
  const bool has_init = r.u8_value() != 0;
  const i32 init = r.i32_value();
  if (has_init) loop.constant_init = init;
  return loop;
}

}  // namespace

std::vector<u8> serialize_manifest(const Manifest& m) {
  Writer w;
  w.u32_value(kMagic);
  w.u32_value(kVersion);
  w.u32_value(m.code_begin);
  w.u32_value(m.code_end);
  w.u32_value(m.image_end);
  w.u32_value(m.mtbar_base);
  w.u32_value(m.mtbar_limit);
  w.u32_value(m.mtbdr_base);
  w.u32_value(m.mtbdr_limit);
  w.u32_value(m.nop_pad);

  w.u32_value(static_cast<u32>(m.slots.size()));
  for (const auto& slot : m.slots) {
    w.u8_value(static_cast<u8>(slot.kind));
    w.u32_value(slot.slot_base);
    w.u32_value(slot.slot_end);
    w.u32_value(slot.site);
    w.instruction(slot.original);
    w.u32_value(slot.continuation);
  }

  w.u32_value(static_cast<u32>(m.loop_veneers.size()));
  for (const auto& veneer : m.loop_veneers) {
    w.u32_value(veneer.veneer_base);
    w.u32_value(veneer.svc_addr);
    w.u32_value(veneer.site);
    w.instruction(veneer.displaced);
    write_simple_loop(w, veneer.loop);
  }

  w.u32_value(static_cast<u32>(m.deterministic_loops.size()));
  for (const auto& [site, loop] : m.deterministic_loops) {
    w.u32_value(site);
    write_simple_loop(w, loop);
  }
  return w.take();
}

Manifest deserialize_manifest(std::span<const u8> bytes) {
  Reader r(bytes);
  if (r.u32_value() != kMagic) throw Error("manifest: bad magic");
  const u32 version = r.u32_value();
  if (version == 1) {
    throw Error("manifest: v1 may carry ambiguous slots; rewrite the image");
  }
  if (version != kVersion) throw Error("manifest: unsupported version");
  Manifest m;
  m.code_begin = r.u32_value();
  m.code_end = r.u32_value();
  m.image_end = r.u32_value();
  m.mtbar_base = r.u32_value();
  m.mtbar_limit = r.u32_value();
  m.mtbdr_base = r.u32_value();
  m.mtbdr_limit = r.u32_value();
  m.nop_pad = r.u32_value();

  const u32 slot_count = r.u32_value();
  for (u32 i = 0; i < slot_count; ++i) {
    SlotRecord slot;
    const u8 kind = r.u8_value();
    if (kind > static_cast<u8>(SlotKind::CondBoth)) {
      throw Error("manifest: unknown slot kind " + std::to_string(kind));
    }
    slot.kind = static_cast<SlotKind>(kind);
    slot.slot_base = r.u32_value();
    slot.slot_end = r.u32_value();
    slot.site = r.u32_value();
    slot.original = r.instruction();
    slot.continuation = r.u32_value();
    m.slots.push_back(slot);
  }

  const u32 veneer_count = r.u32_value();
  for (u32 i = 0; i < veneer_count; ++i) {
    LoopVeneerRecord veneer;
    veneer.veneer_base = r.u32_value();
    veneer.svc_addr = r.u32_value();
    veneer.site = r.u32_value();
    veneer.displaced = r.instruction();
    veneer.loop = read_simple_loop(r);
    m.loop_veneers.push_back(veneer);
  }

  const u32 det_count = r.u32_value();
  for (u32 i = 0; i < det_count; ++i) {
    const Address site = r.u32_value();
    m.deterministic_loops[site] = read_simple_loop(r);
  }
  if (!r.done()) throw Error("manifest: trailing bytes");
  return m;
}

}  // namespace raptrack::rewrite
