// MiniLang call plumbing. Every method body runs as register bytecode
// (compile.hpp) on the threaded VM (vm.hpp); the engine here owns what spans
// calls: name resolution and visibility, arity, call-depth and step limits,
// native methods, and the coherence brackets VIG injects. One engine per
// external call; it is cheap (a couple of counters). The limits guard
// against runaway spliced code — VIG validation should catch bad code
// first, but the engine is the last line of defense.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "minilang/object.hpp"
#include "minilang/value.hpp"

namespace psf::minilang {

struct InterpOptions {
  std::size_t max_steps = 2'000'000;
  std::size_t max_depth = 128;
};

/// Create an instance of `class_name` and run its `constructor` method (if
/// any) with `args`. Throws EvalError for unknown classes.
std::shared_ptr<Instance> instantiate(const ClassRegistry& registry,
                                      const std::string& class_name,
                                      std::vector<Value> args = {},
                                      InterpOptions options = {});

/// Invoke `method` on `self`. `external` enforces public visibility (an
/// in-language `this.m()` or bare `m()` call is internal).
Value invoke_method(const std::shared_ptr<Instance>& self,
                    const std::string& method, std::vector<Value> args,
                    bool external, InterpOptions options = {});

/// Invoke an already-resolved method on `self` in a fresh engine — exactly
/// what Instance::call does after its name lookup and visibility check. The
/// VM's inline-cache hit path uses this; callers must guarantee `method`
/// is the public method the name lookup would have found (the IC guard does).
Value invoke_method_resolved(const std::shared_ptr<Instance>& self,
                             const MethodDef& method, std::vector<Value> args,
                             InterpOptions options = {});

/// Names of all builtins (VIG treats these as always-defined).
const std::vector<std::string>& builtin_names();

}  // namespace psf::minilang
