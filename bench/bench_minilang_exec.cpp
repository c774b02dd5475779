// MiniLang's production engine against the reference interpreter (DESIGN.md
// §4j): the same method bodies timed on the tests' tree-walking oracle
// (tests/oracle) and on the register-bytecode VM, in one process.
// Warm dispatch is what views feel in steady state — methods are compiled
// once (generation time in production, a warmup call here), then every
// request pays only the dispatch loop.
//
// Trajectory JSON: BENCH_minilang_exec.json. The regression gate holds the
// loop-method speedup (baselines.json: minilang_exec/derived/
// bytecode_speedup_loop) — the bytecode engine must stay >=2x the
// interpreter on loop-heavy bodies or CI fails.
#include <cstdio>

#include "bench_util.hpp"
#include "mail/components.hpp"
#include "minilang/compile.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "oracle/tree_walker.hpp"
#include "views/vig.hpp"

namespace {

using namespace psf;
using minilang::ClassDef;
using minilang::ClassRegistry;
using minilang::MethodDef;
using minilang::Value;

// Hot-method archetypes, mirroring what spliced view methods actually do:
// arithmetic loops, builtin/string scans, and field churn.
std::shared_ptr<ClassDef> make_hot_class() {
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Hot";
  cls->fields.push_back({"balance", "int", Value::integer(0)});
  cls->fields.push_back({"count", "int", Value::integer(0)});
  cls->fields.push_back({"notes", "list", Value::null()});
  auto add = [&](const std::string& name, std::vector<std::string> params,
                 const std::string& body) {
    MethodDef m;
    m.name = name;
    m.params = std::move(params);
    m.source = body;
    m.body = std::move(minilang::parse_block_source(body)).take();
    cls->methods.push_back(std::move(m));
  };
  add("constructor", {}, R"(
      notes = list();
      var i = 0;
      while (i < 32) {
        push(notes, "note number " + i + " about meetings");
        i = i + 1;
      })");
  add("sumTo", {"n"}, R"(
      var total = 0;
      for (var i = 0; i < n; i = i + 1) {
        total = total + i * 2 - (i % 3);
      }
      return total;)");
  add("scanNotes", {"needle"}, R"(
      var hits = 0;
      var i = 0;
      while (i < len(notes)) {
        var note = notes[i];
        if (contains(note, needle) && len(note) > 10) {
          hits = hits + 1;
        }
        i = i + 1;
      }
      return hits;)");
  add("churn", {"delta"}, R"(
      balance = balance + delta;
      count = count + 1;
      if (balance > 1000000) { balance = 0; }
      return balance * count;)");
  return cls;
}

// Which engine runs a timed call: the reference walker or the production VM.
enum class Engine { kOracle, kVm };

Value invoke(Engine engine, const std::shared_ptr<minilang::Instance>& self,
             const std::string& method, const std::vector<Value>& args) {
  return engine == Engine::kOracle
             ? minilang::oracle::invoke_method(self, method, args,
                                               /*external=*/true)
             : minilang::invoke_method(self, method, args, /*external=*/true);
}

double time_method(const std::shared_ptr<minilang::Instance>& self,
                   const std::string& method, const std::vector<Value>& args,
                   Engine engine, int iters) {
  return bench::time_us(
      iters, [&] { (void)invoke(engine, self, method, args); });
}

void reproduce() {
  ClassRegistry registry;
  mail::register_all(registry);
  auto hot = make_hot_class();
  registry.register_class(hot);
  auto self = minilang::instantiate(registry, "Hot");

  // A generated view's copied method, for the end-to-end dispatch figure.
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_member());
  auto view_cls = vig.generate(def.value());
  auto view = minilang::instantiate(registry, view_cls.value()->name);

  bench::Report report("minilang_exec");
  const int iters = bench::iterations(400, 25);

  struct Case {
    const char* name;
    std::shared_ptr<minilang::Instance> self;
    std::string method;
    std::vector<Value> args;
  };
  const Case cases[] = {
      {"sum_loop", self, "sumTo", {Value::integer(1000)}},
      {"scan_notes", self, "scanNotes", {Value::string("meetings")}},
      {"field_churn", self, "churn", {Value::integer(7)}},
      {"view_add_note", view, "addNote", {Value::string("bench note")}},
  };

  std::printf("\n  %-16s %12s %12s %10s\n", "method", "interp us/op",
              "bytecode us/op", "speedup");
  for (const Case& c : cases) {
    // Warm both engines: compiles the bytecode once, faults nothing later.
    (void)time_method(c.self, c.method, c.args, Engine::kOracle, 1);
    (void)time_method(c.self, c.method, c.args, Engine::kVm, 1);
    const double interp_us =
        time_method(c.self, c.method, c.args, Engine::kOracle, iters);
    const double bytecode_us =
        time_method(c.self, c.method, c.args, Engine::kVm, iters);
    const double speedup = bytecode_us > 0 ? interp_us / bytecode_us : 0.0;
    std::printf("  %-16s %12.2f %12.2f %9.2fx\n", c.name, interp_us,
                bytecode_us, speedup);
    report.add(std::string(c.name) + ".interp_us", interp_us, "us", iters);
    report.add(std::string(c.name) + ".bytecode_us", bytecode_us, "us", iters);
    report.derived(std::string("bytecode_speedup_") +
                       (c.name == std::string("sum_loop") ? "loop" : c.name),
                   speedup);
  }

  // Compile cost per hot class (fresh slots each round via clone()).
  const int compile_iters = bench::iterations(200, 10);
  const double compile_us = bench::time_us(compile_iters, [&] {
    auto fresh = std::make_shared<ClassDef>();
    fresh->name = "HotCompile";
    fresh->fields = hot->fields;
    for (const auto& m : hot->methods) fresh->methods.push_back(m.clone());
    registry.register_class(fresh);
    for (const auto& m : fresh->methods) {
      (void)minilang::ensure_compiled(registry, fresh, m);
    }
  });
  std::printf("  %-16s %12.2f us/class (%zu methods)\n", "compile", compile_us,
              hot->methods.size());
  report.add("compile_hot_class_us", compile_us, "us", compile_iters);
  report.write();
}

void BM_SumLoop(benchmark::State& state, Engine engine) {
  ClassRegistry registry;
  auto hot = make_hot_class();
  registry.register_class(hot);
  auto self = minilang::instantiate(registry, "Hot");
  const std::vector<Value> args = {Value::integer(1000)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(invoke(engine, self, "sumTo", args));
  }
}
void BM_SumLoopInterp(benchmark::State& state) {
  BM_SumLoop(state, Engine::kOracle);
}
void BM_SumLoopBytecode(benchmark::State& state) {
  BM_SumLoop(state, Engine::kVm);
}
BENCHMARK(BM_SumLoopInterp);
BENCHMARK(BM_SumLoopBytecode);

void BM_FieldChurn(benchmark::State& state, Engine engine) {
  ClassRegistry registry;
  auto hot = make_hot_class();
  registry.register_class(hot);
  auto self = minilang::instantiate(registry, "Hot");
  const std::vector<Value> args = {Value::integer(3)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(invoke(engine, self, "churn", args));
  }
}
void BM_FieldChurnInterp(benchmark::State& state) {
  BM_FieldChurn(state, Engine::kOracle);
}
void BM_FieldChurnBytecode(benchmark::State& state) {
  BM_FieldChurn(state, Engine::kVm);
}
BENCHMARK(BM_FieldChurnInterp);
BENCHMARK(BM_FieldChurnBytecode);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(
      argc, argv, "MiniLang: bytecode VM vs tree-walking interpreter",
      reproduce);
}
