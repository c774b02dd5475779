// Threaded-dispatch VM for MiniLang bytecode (DESIGN.md §4j). Executes a
// CompiledMethod produced by compile.{hpp,cpp}; dispatch uses computed goto
// on GCC/Clang and a portable switch loop elsewhere (or when
// PSF_VM_NO_COMPUTED_GOTO is defined at build time).
//
// The VM owns only the register file of one activation. Everything with
// cross-call state stays in the engine that called it, reached through
// VmHost: nested self-calls re-enter the engine (depth/step accounting,
// arity checks and coherence brackets all run there), and the step counter
// is the engine's own, shared so a deep call stack hits one common
// "step limit exceeded" budget.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "minilang/compile.hpp"

namespace psf::minilang {

/// Callbacks into the invoking engine (implemented by interp.cpp's Engine).
class VmHost {
 public:
  virtual ~VmHost() = default;

  /// A self-call resolved at compile time (kCallSelf): run `method` on
  /// `self` with internal visibility, depth/arity/coherence included.
  virtual Value vm_call_self(const std::shared_ptr<Instance>& self,
                             const MethodDef& method,
                             std::vector<Value> args) = 0;

  /// A member call whose receiver turned out to be `self` at run time
  /// (kCallMember): internal invocation by name, private methods allowed.
  virtual Value vm_call_internal(const std::shared_ptr<Instance>& self,
                                 const std::string& method,
                                 std::vector<Value> args) = 0;
};

/// Execute `method` on `self` with `args` already arity-checked by the
/// caller. `steps` is the engine's step counter; each dispatched instruction
/// increments it and the run aborts with "step limit exceeded" past
/// `max_steps`. Throws EvalError exactly where the reference interpreter
/// (tests/oracle) would.
Value vm_execute(const CompiledMethod& method,
                 const std::shared_ptr<Instance>& self,
                 std::vector<Value> args, VmHost& host, std::size_t& steps,
                 std::size_t max_steps);

/// Install (cls, method) into an empty inline-cache slot — VIG seeds caches
/// at generation time from deployment-analysis monomorphism facts. Refuses
/// non-public targets and already-decided slots; returns whether the seed
/// took. `method` must be declared by `cls` itself.
bool seed_inline_cache(InlineCache& ic, std::shared_ptr<const ClassDef> cls,
                       const MethodDef* method);

}  // namespace psf::minilang
