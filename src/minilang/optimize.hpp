// Bytecode optimizer for MiniLang (DESIGN.md §4l). Runs over a freshly
// compiled CompiledMethod inside ensure_compiled when PSF_MINILANG_OPT is
// enabled (the default): field-load CSE, copy propagation with dead-move
// elimination on temporaries, and inline-cache slot allocation for
// kCallMember sites. Every transformation is locally provable — no
// cross-method or type assumptions — and preserves the observable semantics
// exactly: values, error messages, evaluation order, and the
// step-limit firing point (eliminated instructions fold their step cost into
// the next retained instruction of the same basic block).
#pragma once

#include "minilang/compile.hpp"

namespace psf::minilang {

struct OptimizeStats {
  std::uint32_t loads_cse = 0;       // kLoadField rewritten to kMove
  std::uint32_t moves_forwarded = 0; // reads rewritten to the move's source
  std::uint32_t insns_removed = 0;   // instructions physically deleted
  std::uint32_t caches_allocated = 0;
};

/// Whether the optimizer runs inside ensure_compiled. Reads PSF_MINILANG_OPT
/// on every call so tests and benches can toggle it per phase against fresh
/// registries; any value other than "0" — including unset — enables it.
bool optimize_enabled();

/// Optimize `m` in place. Safe on any compiler output; idempotent enough to
/// run once per compile (ensure_compiled calls it once per compiled variant).
OptimizeStats optimize_method(CompiledMethod& m);

}  // namespace psf::minilang
