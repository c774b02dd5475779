#include "minilang/optimize.hpp"

#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

namespace psf::minilang {

namespace {

bool is_branch(Op op) {
  return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kJumpIfTrue;
}

bool ends_block(Op op) {
  return is_branch(op) || op == Op::kReturn || op == Op::kReturnNull ||
         op == Op::kThrow;
}

/// Registers the instruction may overwrite (destination a). Conservative:
/// kStoreLocalOrField writes r[a] only when the local is defined, but for
/// invalidation purposes "may write" is the safe answer.
bool may_write_dest(Op op) {
  switch (op) {
    case Op::kLoadConst:
    case Op::kLoadNull:
    case Op::kLoadThis:
    case Op::kMove:
    case Op::kLoadChecked:
    case Op::kStoreChecked:
    case Op::kLoadLocalOrField:
    case Op::kStoreLocalOrField:
    case Op::kLoadField:
    case Op::kNeg:
    case Op::kNot:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kBool:
    case Op::kCallBuiltin:
    case Op::kCallSelf:
    case Op::kCallMember:
    case Op::kMemberGet:
    case Op::kIndexGet:
      return true;
    default:
      return false;
  }
}

/// Registers the instruction certainly overwrites on every continuing path
/// (kLoadChecked/kStoreChecked either write or throw, so they count; the
/// conditional kStoreLocalOrField does not).
bool definitely_writes_dest(Op op) {
  return may_write_dest(op) && op != Op::kStoreLocalOrField;
}

/// Visit the scalar operands of `insn` that are plain value reads — operands
/// a substitute register may legally replace. Slot-identity operands (the
/// checked-local ops read *slot* numbers, not values) and call-window bases
/// are excluded; those are handled by reads_reg_rigid/reads_reg_ranged.
template <typename Fn>
void for_each_value_read(Insn& insn, Fn fn) {
  switch (insn.op) {
    case Op::kMove:
    case Op::kNeg:
    case Op::kNot:
    case Op::kBool:
      fn(&insn.b);
      break;
    case Op::kStoreChecked:
    case Op::kStoreLocalOrField:
      fn(&insn.b);  // the stored value; a is the local slot
      break;
    case Op::kStoreField:
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
    case Op::kReturn:
      fn(&insn.a);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kIndexGet:
      fn(&insn.b);
      fn(&insn.c);
      break;
    case Op::kMemberGet:
      fn(&insn.c);
      break;
    case Op::kMemberSet:
      fn(&insn.a);
      fn(&insn.c);
      break;
    case Op::kIndexSet:
      fn(&insn.a);
      fn(&insn.b);
      fn(&insn.c);
      break;
    default:
      break;
  }
}

/// Reads through a contiguous register window (call argument blocks). The
/// window base cannot be rewritten operand-by-operand, so any ranged read of
/// a candidate register blocks forwarding.
bool reads_reg_ranged(const Insn& insn, std::uint16_t reg) {
  switch (insn.op) {
    case Op::kCallBuiltin:
    case Op::kCallSelf:
      return reg >= insn.c && reg < insn.c + insn.imm;
    case Op::kCallMember:
      return reg >= insn.c && reg <= insn.c + insn.imm;  // receiver + args
    default:
      return false;
  }
}

/// Slot-identity operands: the register number is semantic (defined-bit
/// checks), not a value read. Candidate destinations are temporaries and
/// these operands are always locals, but keep the check as a backstop.
bool reads_reg_rigid(const Insn& insn, std::uint16_t reg) {
  switch (insn.op) {
    case Op::kLoadChecked:
      return insn.b == reg;
    case Op::kLoadLocalOrField:
      return insn.b == reg;
    case Op::kDeclareLocal:
      return insn.a == reg;
    default:
      return false;
  }
}

std::vector<char> compute_leaders(const std::vector<Insn>& code) {
  std::vector<char> leader(code.size(), 0);
  if (!code.empty()) leader[0] = 1;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (is_branch(code[i].op)) {
      const auto target = static_cast<std::size_t>(code[i].imm);
      if (target < code.size()) leader[target] = 1;
    }
    if (ends_block(code[i].op) && i + 1 < code.size()) leader[i + 1] = 1;
  }
  return leader;
}

/// Common-subexpression elimination on self field loads. Within one basic
/// block, a second kLoadField of a slot whose value is provably still live in
/// a register becomes a kMove. Field availability survives builtin calls
/// (builtins never touch instance fields — they mutate container *contents*,
/// never the field slot binding) but dies on anything that can write fields:
/// self/member calls, member stores, and the conditional local-or-field
/// store.
std::uint32_t run_field_load_cse(CompiledMethod& m,
                                 const std::vector<char>& leader) {
  std::uint32_t rewritten = 0;
  std::map<std::int32_t, std::uint16_t> avail;  // field slot -> register
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    if (leader[i]) avail.clear();
    Insn& insn = m.code[i];
    if (insn.op == Op::kLoadField) {
      auto hit = avail.find(insn.imm);
      if (hit != avail.end()) {
        const std::uint16_t src = hit->second;
        insn.op = Op::kMove;
        insn.b = src;
        insn.c = 0;
        insn.imm = 0;
        ++rewritten;
      }
    }
    switch (insn.op) {
      case Op::kCallSelf:
      case Op::kCallMember:
      case Op::kMemberSet:
        avail.clear();
        break;
      case Op::kStoreField:
        avail.erase(insn.imm);
        break;
      case Op::kStoreLocalOrField:
        avail.erase(insn.imm);
        break;
      default:
        break;
    }
    if (may_write_dest(insn.op)) {
      for (auto it = avail.begin(); it != avail.end();) {
        it = it->second == insn.a ? avail.erase(it) : ++it;
      }
    }
    if (insn.op == Op::kLoadField) avail[insn.imm] = insn.a;
    if (insn.op == Op::kStoreField) avail[insn.imm] = insn.a;
  }
  return rewritten;
}

struct ForwardingResult {
  std::uint32_t moves_forwarded = 0;
  std::uint32_t moves_killed = 0;
};

/// Copy propagation + dead-move elimination restricted to moves whose
/// destination is a temporary. A move dies only when *every* read of its
/// destination across the whole method is a substitutable value read inside
/// the move's own block, before the source register is clobbered — reads in
/// any other block (including earlier positions, which a loop back edge
/// could reach) keep the move alive. kMove a,a is a pure no-op and dies
/// unconditionally. The `alive[i+1]`-side leader rule is enforced by the
/// caller's compaction contract: a move is only killed when the following
/// instruction exists and starts no new block, so its step cost can fold
/// forward within the block.
ForwardingResult run_move_forwarding(CompiledMethod& m,
                                     const std::vector<char>& leader,
                                     std::vector<char>& alive) {
  ForwardingResult result;
  const std::size_t n = m.code.size();
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 8) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i] || m.code[i].op != Op::kMove) continue;
      const std::uint16_t dst = m.code[i].a;
      const std::uint16_t src = m.code[i].b;
      const bool removable_position = i + 1 < n && !leader[i + 1];
      if (!removable_position) continue;

      if (dst == src) {  // no-op move
        alive[i] = 0;
        ++result.moves_killed;
        changed = true;
        continue;
      }
      if (dst < m.num_locals) continue;  // only forward temporaries

      // Block extent and the positions where src is clobbered or dst is
      // unconditionally redefined.
      std::size_t block_end = i + 1;  // exclusive
      while (block_end < n && !leader[block_end]) ++block_end;
      std::size_t src_clobber = block_end;  // first may-write of src after i
      std::size_t dst_redef = block_end;    // first definite write of dst
      for (std::size_t j = i + 1; j < block_end; ++j) {
        if (!alive[j]) continue;
        if (src_clobber == block_end && may_write_dest(m.code[j].op) &&
            m.code[j].a == src) {
          src_clobber = j;
        }
        if (dst_redef == block_end && definitely_writes_dest(m.code[j].op) &&
            m.code[j].a == dst) {
          dst_redef = j;
        }
      }

      // Classify every read of dst among alive instructions. A read strictly
      // after the unconditional redefinition sees the new value (within the
      // block, or anywhere else: the moved value cannot escape a block that
      // redefines dst before its single exit — exceptions unwind the whole
      // method). Everything else must be a substitutable in-block read that
      // runs before src is clobbered, or the move stays.
      bool blocked = false;
      std::vector<std::uint16_t*> to_substitute;
      for (std::size_t j = 0; j < n && !blocked; ++j) {
        if (!alive[j] || j == i) continue;
        Insn& other = m.code[j];
        const bool in_block = j > i && j < block_end;
        const bool reads_new_def =
            in_block ? j > dst_redef : dst_redef < block_end;
        if (reads_reg_ranged(other, dst) || reads_reg_rigid(other, dst)) {
          if (!reads_new_def) blocked = true;
          continue;
        }
        for_each_value_read(other, [&](std::uint16_t* operand) {
          if (*operand != dst || reads_new_def) return;
          // At the redefinition / clobber instruction itself the operand is
          // read before the write, so j == dst_redef / j == src_clobber is
          // still a read of this move with src intact.
          if (in_block && j <= src_clobber) {
            to_substitute.push_back(operand);
          } else {
            blocked = true;
          }
        });
      }
      if (blocked) continue;

      for (std::uint16_t* operand : to_substitute) {
        *operand = src;
        ++result.moves_forwarded;
      }
      alive[i] = 0;
      ++result.moves_killed;
      changed = true;
    }
  }
  return result;
}

/// Drop dead instructions, folding their step cost into the next retained
/// instruction (the kill rule guarantees one exists inside the same block),
/// and remap branch targets. Branch targets always survive: a killed
/// instruction is never followed by a leader, so the prefix-count map lands
/// every old target on the first retained instruction at or after it.
void compact(CompiledMethod& m, const std::vector<char>& alive) {
  const std::size_t n = m.code.size();
  std::vector<std::int32_t> remap(n + 1, 0);
  std::int32_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    remap[i] = kept;
    if (alive[i]) ++kept;
  }
  remap[n] = kept;

  std::vector<Insn> out;
  out.reserve(static_cast<std::size_t>(kept));
  std::uint32_t pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) {
      pending += m.code[i].cost;
      continue;
    }
    Insn insn = m.code[i];
    insn.cost = static_cast<std::uint16_t>(insn.cost + pending);
    pending = 0;
    if (is_branch(insn.op)) {
      insn.imm = remap[static_cast<std::size_t>(insn.imm)];
    }
    out.push_back(insn);
  }
  m.code = std::move(out);
}

}  // namespace

bool optimize_enabled() {
  const char* env = std::getenv("PSF_MINILANG_OPT");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

OptimizeStats optimize_method(CompiledMethod& m) {
  OptimizeStats stats;
  if (m.code.empty()) return stats;

  const std::vector<char> leader = compute_leaders(m.code);
  stats.loads_cse = run_field_load_cse(m, leader);

  std::vector<char> alive(m.code.size(), 1);
  const ForwardingResult fwd = run_move_forwarding(m, leader, alive);
  stats.moves_forwarded = fwd.moves_forwarded;
  stats.insns_removed = fwd.moves_killed;
  if (fwd.moves_killed > 0) compact(m, alive);

  // Allocate one monomorphic inline-cache slot per member-call site; the VM
  // fills them on first dispatch and VIG seeds them from deployment facts.
  // Sites past the 16-bit slot operand keep d = 0 (uncached).
  std::uint32_t caches = 0;
  for (Insn& insn : m.code) {
    if (insn.op == Op::kCallMember && caches < 0xFFFF) {
      insn.d = static_cast<std::uint16_t>(++caches);
    }
  }
  if (caches > 0) {
    m.caches = std::make_unique<InlineCache[]>(caches);
    m.num_caches = caches;
  }
  stats.caches_allocated = caches;
  return stats;
}

}  // namespace psf::minilang
