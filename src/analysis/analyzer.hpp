// The reusable static-analysis engine over view definitions (DESIGN.md §4g).
// analyze() builds the resolved ViewModel (structural checks, PSA001-PSA011)
// and then runs every registered pass over it:
//
//   field-reachability  PSA020/PSA021  VIG's copy-by-use rule, precise spans
//   use-before-init     PSA030/PSA031  linear `var` flow over minilang
//   dead-members        PSA035/PSA036  added members no exposed path reaches
//   exposure            PSA040-PSA042  restricted views reaching past the
//                                      restriction; remote customizations
//                                      touching local-only state
//   coherence           PSA060-PSA062  mutating methods vs. custom extract
//                                      bodies; wiring-field hygiene
//   credential-flow     PSA070         ACL roles no delegation chain proves
//
// Consumers: views::Vig (refuses generation on errors), tools/psf_analyze
// (standalone XML linting, CI), and tests/analysis_test.cpp.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/model.hpp"
#include "drbac/entity.hpp"
#include "minilang/object.hpp"
#include "views/view_def.hpp"

namespace psf::drbac {
class Repository;
}

namespace psf::analysis {

/// One Table-4 row as the credential-flow pass sees it: "clients proving
/// `role` are served `view_name`".
struct AccessRule {
  drbac::RoleRef role;
  std::string view_name;
};

/// Deploy-time security wiring, when the caller has it (the standalone CLI
/// usually does not — the credential pass is skipped without it).
struct SecurityContext {
  const drbac::Repository* repository = nullptr;
  std::vector<AccessRule> rules;
};

struct AnalysisInput {
  const views::ViewDefinition& def;
  const minilang::ClassRegistry& registry;
  const ViewModel& model;
  const SecurityContext* security = nullptr;  // may be null
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual void run(const AnalysisInput& input, DiagnosticSink& sink) const = 0;
};

/// Ordered pass collection. The global registry is populated with the
/// built-in passes on first use; embedders can append their own.
class PassRegistry {
 public:
  void add(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }
  const Pass* find(std::string_view name) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The process-wide registry holding the built-in passes.
PassRegistry& global_pass_registry();

struct AnalysisOptions {
  /// Mirrors VigOptions::auto_coherence: when false, missing coherence
  /// methods are PSA011 errors instead of synthesized defaults.
  bool auto_coherence = true;
  const SecurityContext* security = nullptr;
  /// Non-null overrides the global registry (isolated pass sets in tests).
  const PassRegistry* registry = nullptr;
};

/// Added members no exposed entry point can reach — the fact base behind
/// the PSA035/PSA036 warnings and the exact set VIG strips from generated
/// views (unless VigOptions::strip is off). One computation serves both so
/// the diagnostics and the generator can never disagree.
struct DeadMembers {
  std::vector<std::string> methods;  // model build order (deterministic)
  std::vector<std::string> fields;   // sorted (added_fields is a set)
};

DeadMembers compute_dead_members(const ViewModel& model);

struct AnalysisResult {
  std::string view_name;
  std::vector<Diagnostic> diagnostics;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  /// Members VIG will strip ("method foo" / "field bar"), from
  /// compute_dead_members. Informational — stripping itself happens at
  /// generation time and honors VigOptions::strip.
  std::vector<std::string> stripped;

  bool has_errors() const { return errors > 0; }
  /// Stable machine-readable report (psf_analyze --json; golden-tested).
  std::string json() const;
};

AnalysisResult analyze(const views::ViewDefinition& def,
                       const minilang::ClassRegistry& registry,
                       const AnalysisOptions& options = {});

}  // namespace psf::analysis
