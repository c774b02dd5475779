// Reference tree-walking interpreter for MiniLang: the test oracle the
// bytecode VM is held value- and side-effect-identical to
// (tests/bytecode_diff_test.cpp). It walks the parsed AST directly, with
// dynamic name-keyed locals, and re-implements the call plumbing of the
// production engine (depth and step limits, arity, visibility, native
// methods, coherence brackets) so a whole self-call tree runs on the walker.
// Calls on other objects go through Instance::call, i.e. the production VM,
// exactly as they would from bytecode. Linked only into tests and benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "minilang/interp.hpp"
#include "minilang/object.hpp"
#include "minilang/value.hpp"

namespace psf::minilang::oracle {

/// instantiate() on the walker: the constructor (if any) runs tree-walked.
std::shared_ptr<Instance> instantiate(const ClassRegistry& registry,
                                      const std::string& class_name,
                                      std::vector<Value> args = {},
                                      InterpOptions options = {});

/// invoke_method() on the walker.
Value invoke_method(const std::shared_ptr<Instance>& self,
                    const std::string& method, std::vector<Value> args,
                    bool external, InterpOptions options = {});

}  // namespace psf::minilang::oracle
