// Differential suite for MiniLang's one production engine (DESIGN.md §4j):
// every method body must produce the same value, the same field mutations,
// the same coherence image, and the same error message on the
// register-bytecode VM as on the reference tree-walking interpreter
// (tests/oracle). Each scenario runs twice — once on the oracle, once on
// the VM — against a fresh instance, and the full outcome transcripts are
// compared.
//
// Coverage: every builtin, the arithmetic/comparison/logical operator
// surface, control flow (loops, break/continue, short-circuit), dynamic
// locals, `var this` and duplicate parameters, inherited methods run through
// a subclass (compiled per concrete class), the five in-tree mail views plus
// the good_* analysis fixtures, error parity (division by zero, undefined
// variables, bad indexing, step limits), and the typed refusal of a method
// past the bytecode's 16-bit operand limit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mail/components.hpp"
#include "minilang/compile.hpp"
#include "minilang/interp.hpp"
#include "minilang/optimize.hpp"
#include "minilang/parser.hpp"
#include "obs/metrics.hpp"
#include "oracle/tree_walker.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace psf {
namespace {

using minilang::ClassDef;
using minilang::ClassRegistry;
using minilang::EvalError;
using minilang::Instance;
using minilang::InterpOptions;
using minilang::MethodDef;
using minilang::Value;
using minilang::Visibility;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Which side of the diff runs a call.
enum class Engine { kOracle, kVm };

Value invoke(Engine engine, const std::shared_ptr<Instance>& self,
             const std::string& method, std::vector<Value> args,
             const InterpOptions& options = {}) {
  return engine == Engine::kOracle
             ? minilang::oracle::invoke_method(self, method, std::move(args),
                                               /*external=*/true, options)
             : minilang::invoke_method(self, method, std::move(args),
                                       /*external=*/true, options);
}

std::shared_ptr<Instance> instantiate(Engine engine,
                                      const ClassRegistry& registry,
                                      const std::string& class_name,
                                      std::vector<Value> ctor_args = {},
                                      const InterpOptions& options = {}) {
  return engine == Engine::kOracle
             ? minilang::oracle::instantiate(registry, class_name,
                                             std::move(ctor_args), options)
             : minilang::instantiate(registry, class_name,
                                     std::move(ctor_args), options);
}

// One call's observable outcome: tagged result or the exact error text.
std::string call_outcome(const std::shared_ptr<Instance>& self,
                         const std::string& method, std::vector<Value> args,
                         Engine engine) {
  try {
    Value v = invoke(engine, self, method, std::move(args));
    return "ok " + v.type_name() + ":" + v.to_display_string();
  } catch (const EvalError& e) {
    return std::string("error ") + e.what();
  }
}

// Serializable field state (object-valued fields carry no stable printable
// identity and are excluded, mirroring views::instance_image).
std::string field_snapshot(const ClassRegistry& registry, Instance& self) {
  std::ostringstream os;
  for (const auto* field : registry.all_fields(self.cls())) {
    const Value v = self.get_field(field->name);
    if (v.is_object()) continue;
    os << field->name << "=" << v.type_name() << ":" << v.to_display_string()
       << "\n";
  }
  return os.str();
}

// Run the same call sequence on a fresh instance on one engine and return
// the full transcript: per-call outcomes, the final field state, and the
// coherence image the view would push.
std::string transcript(const ClassRegistry& registry,
                       const std::string& class_name,
                       std::vector<Value> ctor_args,
                       const std::vector<std::pair<std::string,
                                                   std::vector<Value>>>& calls,
                       Engine engine) {
  std::ostringstream os;
  std::shared_ptr<Instance> self;
  try {
    self = instantiate(engine, registry, class_name, std::move(ctor_args));
  } catch (const EvalError& e) {
    return std::string("ctor error ") + e.what();
  }
  for (const auto& [method, args] : calls) {
    os << method << " -> " << call_outcome(self, method, args, engine)
       << "\n";
  }
  os << "-- fields --\n" << field_snapshot(registry, *self);
  os << "-- image --\n" << util::to_hex(views::instance_image(*self)) << "\n";
  return os.str();
}

void expect_engines_agree(
    const ClassRegistry& registry, const std::string& class_name,
    const std::vector<Value>& ctor_args,
    const std::vector<std::pair<std::string, std::vector<Value>>>& calls) {
  const std::string oracle =
      transcript(registry, class_name, ctor_args, calls, Engine::kOracle);
  const std::string vm =
      transcript(registry, class_name, ctor_args, calls, Engine::kVm);
  EXPECT_EQ(oracle, vm) << class_name;
}

using MethodSpecs = std::vector<
    std::tuple<std::string, std::vector<std::string>, std::string>>;

// Register class `class_name` (extending `super_name` when non-empty) built
// from (name, params, body) method triples.
void add_class(ClassRegistry& registry, const std::string& class_name,
               const MethodSpecs& methods,
               const std::vector<std::pair<std::string, Value>>& fields = {},
               const std::string& super_name = "") {
  auto cls = std::make_shared<ClassDef>();
  cls->name = class_name;
  cls->super_name = super_name;
  for (const auto& [name, initial] : fields) {
    cls->fields.push_back({name, initial.type_name(), initial});
  }
  for (const auto& [name, params, body] : methods) {
    MethodDef m;
    m.name = name;
    m.params = params;
    m.source = body;
    auto parsed = minilang::parse_block_source(body);
    EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.error().message;
    m.body = std::move(parsed).take();
    m.visibility = Visibility::kPublic;
    cls->methods.push_back(std::move(m));
  }
  registry.register_class(cls);
}

// A one-class registry.
std::shared_ptr<ClassRegistry> make_registry(
    const std::string& class_name, const MethodSpecs& methods,
    const std::vector<std::pair<std::string, Value>>& fields = {}) {
  auto registry = std::make_shared<ClassRegistry>();
  add_class(*registry, class_name, methods, fields);
  return registry;
}

// ---------------------------------------------------------------- builtins

TEST(BytecodeDiff, EveryBuiltinAgrees) {
  auto registry = make_registry(
      "Builtins",
      {
          {"lists", {}, R"(
              var l = list(1, 2, 3);
              push(l, 4);
              var popped = pop(l);
              return str(l) + "|" + str(popped) + "|" + str(len(l)) +
                     "|" + str(contains(l, 2));)"},
          {"maps", {}, R"(
              var m = map();
              put(m, "a", 1);
              put(m, "b", 2);
              var r = remove(m, "a");
              return str(get(m, "b")) + "|" + str(has(m, "a")) + "|" +
                     str(keys(m)) + "|" + str(len(m)) + "|" + str(r) +
                     "|" + str(get(m, "missing"));)"},
          {"strings", {}, R"(
              var s = "hello world";
              return substr(s, 0, 5) + "|" + str(contains(s, "wor")) +
                     "|" + str(len(s)) + "|" + text(bytes(s));)"},
          {"numbers", {}, R"(
              return str(min(3, 7)) + "|" + str(max(3, 7)) + "|" +
                     str(abs(0 - 9)) + "|" + typeof(1) + "|" + typeof("x") +
                     "|" + typeof(list());)"},
          {"printing", {}, R"(print("diff probe"); return 0;)"},
      });
  expect_engines_agree(*registry, "Builtins", {},
                       {{"lists", {}},
                        {"maps", {}},
                        {"strings", {}},
                        {"numbers", {}},
                        {"printing", {}}});
}

// ------------------------------------------------------- language surface

TEST(BytecodeDiff, OperatorsAndControlFlowAgree) {
  auto registry = make_registry(
      "Lang",
      {
          {"constructor", {}, "acc = 0;"},
          {"arith", {"a", "b"}, R"(
              return str(a + b) + "|" + str(a - b) + "|" + str(a * b) +
                     "|" + str(a / b) + "|" + str(a % b) + "|" + str(0 - a);)"},
          {"compare", {"a", "b"}, R"(
              return str(a == b) + str(a != b) + str(a < b) + str(a <= b) +
                     str(a > b) + str(a >= b) + str("x" < "y");)"},
          {"logic", {"x"}, R"(
              var hits = 0;
              if (x > 0 && sideEffect() > 0) { hits = hits + 1; }
              if (x > 0 || sideEffect() > 0) { hits = hits + 10; }
              return str(hits) + "|" + str(acc) + "|" + str(!(x > 0));)"},
          {"sideEffect", {}, "acc = acc + 1; return acc;"},
          {"loops", {"n"}, R"(
              var total = 0;
              for (var i = 0; i < n; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 7) { break; }
                total = total + i;
              }
              var j = 0;
              while (true) {
                j = j + 1;
                if (j >= 3) { break; }
              }
              return str(total) + "|" + str(j);)"},
          {"dynamicLocals", {"flag"}, R"(
              if (flag) { var late = 41; }
              var late = late + 1;
              return late;)"},
          {"stringConcat", {}, R"(return "n=" + 42 + " b=" + true;)"},
      },
      {{"acc", Value::integer(0)}});
  expect_engines_agree(
      *registry, "Lang", {},
      {{"arith", {Value::integer(17), Value::integer(5)}},
       {"arith", {Value::integer(-17), Value::integer(5)}},
       {"compare", {Value::integer(3), Value::integer(3)}},
       {"compare", {Value::integer(2), Value::integer(9)}},
       {"logic", {Value::integer(1)}},
       {"logic", {Value::integer(0)}},
       {"loops", {Value::integer(20)}},
       {"dynamicLocals", {Value::boolean(true)}},
       {"dynamicLocals", {Value::boolean(false)}},  // use-before-declare error
       {"stringConcat", {}}});
}

// ------------------------------------------------------------ error parity

TEST(BytecodeDiff, ErrorMessagesAgree) {
  auto registry = make_registry(
      "Errs",
      {
          {"constructor", {}, "hits = 0;"},
          {"divZero", {}, "return 1 / (hits * 0);"},
          {"modZero", {}, "return 1 % (hits * 0);"},
          {"undefinedVar", {}, "return ghost + 1;"},
          {"listRange", {}, "var l = list(1); return l[5];"},
          {"strRange", {}, "var s = \"ab\"; return s[9];"},
          {"badIndex", {}, "var n = 4; return n[0];"},
          {"badMember", {}, "var n = 4; return n.field;"},
          {"missingMethod", {}, "hits = hits + 1; return nowhere();"},
          {"mutateThenThrow", {}, "hits = hits + 1; return 1 / 0;"},
      },
      {{"hits", Value::integer(0)}});
  expect_engines_agree(*registry, "Errs", {},
                       {{"divZero", {}},
                        {"modZero", {}},
                        {"undefinedVar", {}},
                        {"listRange", {}},
                        {"strRange", {}},
                        {"badIndex", {}},
                        {"badMember", {}},
                        {"missingMethod", {}},   // args/mutations before throw
                        {"mutateThenThrow", {}},
                        {"divZero", {}}});
}

TEST(BytecodeDiff, StepLimitAgrees) {
  auto registry = make_registry(
      "Spin", {{"spin", {}, "var i = 0; while (true) { i = i + 1; }"}});
  for (Engine engine : {Engine::kOracle, Engine::kVm}) {
    InterpOptions options;
    options.max_steps = 10'000;
    auto obj = instantiate(engine, *registry, "Spin", {}, options);
    try {
      invoke(engine, obj, "spin", {}, options);
      FAIL() << "step limit did not fire";
    } catch (const EvalError& e) {
      EXPECT_STREQ(e.what(), "step limit exceeded");
    }
  }
}

// ----------------------------------------------------------- view classes

// Generate a view, then run its public scripted methods under both engines
// and require identical transcripts (results, fields, coherence image).
void diff_view(ClassRegistry& registry, const std::string& xml,
               const std::vector<std::pair<std::string,
                                           std::vector<Value>>>& calls) {
  auto def = views::ViewDefinition::from_xml(xml);
  ASSERT_TRUE(def.ok()) << def.error().message;
  views::Vig vig(&registry);
  auto cls = vig.generate(def.value());
  ASSERT_TRUE(cls.ok()) << cls.error().message;
  expect_engines_agree(registry, cls.value()->name, {}, calls);
}

// Every public spliced/copied method with no parameters, probed generically
// (int args would only exercise the arity check, which is engine-neutral).
std::vector<std::pair<std::string, std::vector<Value>>> zero_arg_calls(
    const ClassDef& cls) {
  std::vector<std::pair<std::string, std::vector<Value>>> calls;
  for (const auto& m : cls.methods) {
    if (m.is_native || m.name == "constructor") continue;
    if (m.visibility != Visibility::kPublic) continue;
    if (!m.params.empty()) continue;
    calls.push_back({m.name, {}});
  }
  return calls;
}

TEST(BytecodeDiff, MemberViewAgrees) {
  ClassRegistry registry;
  mail::register_all(registry);
  diff_view(registry, mail::view_xml_member(),
            {{"addNote", {Value::string("remember the milk")}},
             {"addNote", {Value::string("second note")}},
             {"receiveMessages", {}},
             {"addAccount",
              {Value::string("a"), Value::string("p"), Value::string("e")}}});
}

TEST(BytecodeDiff, PartnerViewAgrees) {
  ClassRegistry registry;
  mail::register_all(registry);
  diff_view(registry, mail::view_xml_partner(),
            {{"addAccount",
              {Value::string("alice"), Value::string("555"),
               Value::string("alice@x")}},
             {"getPhone", {Value::string("alice")}},
             {"getEmail", {Value::string("alice")}},
             {"getPhone", {Value::string("nobody")}},
             {"addNote", {Value::string("from the view")}}});
}

TEST(BytecodeDiff, RemainingInTreeViewsAgree) {
  const std::string xmls[] = {mail::view_xml_anonymous(),
                              mail::view_xml_mail_server_cache(),
                              mail::view_xml_client_replica()};
  for (const std::string& xml : xmls) {
    ClassRegistry registry;
    mail::register_all(registry);
    auto def = views::ViewDefinition::from_xml(xml);
    ASSERT_TRUE(def.ok());
    views::Vig vig(&registry);
    auto cls = vig.generate(def.value());
    ASSERT_TRUE(cls.ok()) << cls.error().message;
    expect_engines_agree(registry, cls.value()->name, {},
                         zero_arg_calls(*cls.value()));
  }
}

TEST(BytecodeDiff, GoodAnalysisFixtureViewsAgree) {
  const char* fixtures[] = {"good_reachability.xml", "good_use_before_init.xml",
                            "good_dead_members.xml", "good_exposure.xml",
                            "good_coherence.xml"};
  for (const char* name : fixtures) {
    ClassRegistry registry;
    mail::register_all(registry);
    auto def = views::ViewDefinition::from_xml(
        read_file(std::string(PSF_ANALYSIS_FIXTURE_DIR) + "/" + name));
    ASSERT_TRUE(def.ok()) << name;
    views::Vig vig(&registry);
    auto cls = vig.generate(def.value());
    ASSERT_TRUE(cls.ok()) << name << ": " << cls.error().message;
    expect_engines_agree(registry, cls.value()->name, {},
                         zero_arg_calls(*cls.value()));
  }
}

// ------------------------------------- shapes the VM once left to a walker

TEST(BytecodeDiff, InheritedMethodRunsPerConcreteClass) {
  // Base.get reads `f`, which sits at field slot 0 in Base's layout {f} and
  // slot 1 in Sub's {a, f}: one compiled body cannot serve both classes.
  ClassRegistry registry;
  add_class(registry, "Base",
            {{"constructor", {}, "f = 7;"},
             {"get", {}, "return f;"},
             {"bump", {"n"}, "f = f + n; return get();"}},
            {{"f", Value::integer(0)}});
  add_class(registry, "Sub", {{"setA", {"v"}, "a = v; return a + get();"}},
            {{"a", Value::integer(0)}}, "Base");
  const std::vector<std::pair<std::string, std::vector<Value>>> calls = {
      {"get", {}},
      {"bump", {Value::integer(5)}},
      {"get", {}}};
  expect_engines_agree(registry, "Base", {}, calls);
  expect_engines_agree(registry, "Sub", {}, calls);
  expect_engines_agree(registry, "Sub", {}, {{"setA", {Value::integer(30)}}});

  // 1000 calls through each class compile Base.get exactly twice — once per
  // concrete class — and every call runs on the VM.
  auto& compiled = obs::counter("psf.minilang.methods_compiled");
  ClassRegistry fresh;
  add_class(fresh, "Base", {{"get", {}, "return f;"}},
            {{"f", Value::integer(1)}});
  add_class(fresh, "Sub", {}, {{"a", Value::integer(2)}}, "Base");
  auto base = minilang::instantiate(fresh, "Base");
  auto sub = minilang::instantiate(fresh, "Sub");
  const std::uint64_t before = compiled.value();
  std::int64_t sum = 0;
  for (int i = 0; i < 1000; ++i) {
    sum += base->call("get", {}).as_int();
    sum += sub->call("get", {}).as_int();
  }
  EXPECT_EQ(sum, 2000);
  EXPECT_EQ(compiled.value() - before, 2u);
  const MethodDef& get = *fresh.find_class("Base")->find_method("get");
  const minilang::CompiledMethod& for_base =
      minilang::ensure_compiled(fresh, base->cls_ptr(), get);
  const minilang::CompiledMethod& for_sub =
      minilang::ensure_compiled(fresh, sub->cls_ptr(), get);
  EXPECT_EQ(for_base.self_class, &base->cls());
  EXPECT_EQ(for_sub.self_class, &sub->cls());
}

TEST(BytecodeDiff, VarThisAndDuplicateParamsAgree) {
  auto registry = make_registry(
      "Odd",
      {
          {"varThis", {}, R"(
              var this = 3;
              this = 4;
              return typeof(this) + "|" + str(f);)"},
          {"thisBeforeVar", {}, "this = 1; return 0;"},
          {"dup", {"a", "a"}, "return a;"},
          {"dupMix", {"a", "b", "a"}, "return a * 10 + b;"},
      },
      {{"f", Value::integer(9)}});
  expect_engines_agree(
      *registry, "Odd", {},
      {{"varThis", {}},
       {"thisBeforeVar", {}},  // assignment to undefined variable 'this'
       {"dup", {Value::integer(1), Value::integer(2)}},
       {"dupMix", {Value::integer(1), Value::integer(2), Value::integer(3)}}});
  auto obj = minilang::instantiate(*registry, "Odd");
  EXPECT_EQ(obj->call("dup", {Value::integer(1), Value::integer(2)}).as_int(),
            2);
  // Both shapes compile; the duplicate keeps one register per position.
  const auto cls = registry->find_class("Odd");
  for (const char* name : {"varThis", "dup", "dupMix"}) {
    EXPECT_NO_THROW(
        minilang::ensure_compiled(*registry, cls, *cls->find_method(name)))
        << name;
  }
  EXPECT_EQ(
      minilang::ensure_compiled(*registry, cls, *cls->find_method("dupMix"))
          .num_params,
      3u);
}

// `return len(list(0, 0, ...));` with more arguments than 16-bit register
// operands can address. It parses, and the oracle runs it.
std::string oversized_expr() {
  std::string expr = "len(list(0";
  for (int i = 1; i < 70'000; ++i) expr += ", 0";
  return expr + "))";
}

TEST(BytecodeDiff, OversizedMethodRefusedWithTypedError) {
  auto registry =
      make_registry("Big", {{"big", {}, "return " + oversized_expr() + ";"}});
  EXPECT_EQ(minilang::oracle::invoke_method(
                minilang::oracle::instantiate(*registry, "Big"), "big", {},
                /*external=*/true)
                .as_int(),
            70'000);

  // An ordinary class raises the refusal at first call, and again at every
  // later call: no silent fallback.
  auto obj = minilang::instantiate(*registry, "Big");
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      obj->call("big", {});
      FAIL() << "oversized method ran";
    } catch (const EvalError& e) {
      EXPECT_NE(std::string(e.what()).find("16-bit"), std::string::npos)
          << e.what();
    }
  }

  // VIG refuses generation and leaves no class behind.
  ClassRegistry views_registry;
  mail::register_all(views_registry);
  auto def = views::ViewDefinition::from_xml(
      R"(<View name="ViewMailClient_Big">
  <Represents name="MailClient"/>
  <Restricts><Interface name="NotesI" type="local"/></Restricts>
  <Adds_Methods>
    <MSign>constructor()</MSign>
    <MBody><![CDATA[notes = list(); meetings = list();]]></MBody>
  </Adds_Methods>
  <Customizes_Methods>
    <MSign>addNote(note)</MSign>
    <MBody><![CDATA[push(notes, )" +
      oversized_expr() + R"(); return null;]]></MBody>
  </Customizes_Methods>
</View>)");
  ASSERT_TRUE(def.ok()) << def.error().message;
  views::Vig vig(&views_registry);
  auto cls = vig.generate(def.value());
  ASSERT_FALSE(cls.ok());
  EXPECT_NE(cls.error().message.find("16-bit"), std::string::npos)
      << cls.error().message;
  EXPECT_EQ(views_registry.find_class("ViewMailClient_Big"), nullptr);
}

// ------------------------------------------ optimizer (PSF_MINILANG_OPT)

// Scoped PSF_MINILANG_OPT override; restores the prior value on exit so the
// rest of the suite keeps running under the build's ambient setting.
class OptEnv {
 public:
  explicit OptEnv(const char* value) {
    const char* prior = std::getenv("PSF_MINILANG_OPT");
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    setenv("PSF_MINILANG_OPT", value, 1);
  }
  ~OptEnv() {
    if (had_prior_) {
      setenv("PSF_MINILANG_OPT", prior_.c_str(), 1);
    } else {
      unsetenv("PSF_MINILANG_OPT");
    }
  }

 private:
  bool had_prior_ = false;
  std::string prior_;
};

// Bodies the optimizer actually transforms: repeated field loads inside one
// expression (field-load CSE), redundant local copies (move forwarding),
// plus branches and calls that must invalidate availability.
std::shared_ptr<ClassRegistry> make_opt_registry() {
  return make_registry(
      "Hotspot",
      {
          {"constructor", {}, "balance = 100; count = 7; acc = 0;"},
          {"fieldExpr", {"n"}, R"(
              var total = 0;
              for (var i = 0; i < n; i = i + 1) {
                total = total + balance * balance + balance
                              - count * count + count;
              }
              acc = total;
              return total;)"},
          {"copies", {"a"}, R"(
              var x = a;
              var y = x;
              var z = y;
              return z + balance + balance + balance;)"},
          {"storeReload", {"v"}, R"(
              balance = v;
              var twice = balance + balance;
              sideEffect();
              return twice + balance;)"},
          {"sideEffect", {}, "balance = balance + 1; return balance;"},
          {"branchy", {"n"}, R"(
              var total = balance + balance;
              if (n > 0) { balance = n; } else { count = n; }
              return total + balance + count;)"},
      },
      {{"balance", Value::integer(0)},
       {"count", Value::integer(0)},
       {"acc", Value::integer(0)}});
}

const std::vector<std::pair<std::string, std::vector<Value>>>& opt_calls() {
  static const std::vector<std::pair<std::string, std::vector<Value>>> calls =
      {{"fieldExpr", {Value::integer(6)}},
       {"copies", {Value::integer(5)}},
       {"storeReload", {Value::integer(40)}},
       {"branchy", {Value::integer(3)}},
       {"branchy", {Value::integer(-3)}},
       {"fieldExpr", {Value::integer(0)}}};
  return calls;
}

TEST(BytecodeDiff, OptimizedAndUnoptimizedTranscriptsAgree) {
  std::string unopt, opt, oracle;
  {
    OptEnv off("0");
    unopt = transcript(*make_opt_registry(), "Hotspot", {}, opt_calls(),
                       Engine::kVm);
    oracle = transcript(*make_opt_registry(), "Hotspot", {}, opt_calls(),
                        Engine::kOracle);
  }
  {
    OptEnv on("1");
    opt = transcript(*make_opt_registry(), "Hotspot", {}, opt_calls(),
                     Engine::kVm);
  }
  EXPECT_EQ(unopt, opt);
  EXPECT_EQ(oracle, opt);
}

TEST(BytecodeDiff, OptimizedViewsAgreeWithUnoptimized) {
  const std::string xmls[] = {mail::view_xml_member(), mail::view_xml_partner(),
                              mail::view_xml_anonymous(),
                              mail::view_xml_mail_server_cache(),
                              mail::view_xml_client_replica()};
  for (const std::string& xml : xmls) {
    std::string transcripts[2];
    for (int on = 0; on < 2; ++on) {
      OptEnv env(on == 0 ? "0" : "1");
      ClassRegistry registry;
      mail::register_all(registry);
      auto def = views::ViewDefinition::from_xml(xml);
      ASSERT_TRUE(def.ok());
      views::Vig vig(&registry);
      auto cls = vig.generate(def.value());
      ASSERT_TRUE(cls.ok()) << cls.error().message;
      transcripts[on] = transcript(registry, cls.value()->name, {},
                                   zero_arg_calls(*cls.value()), Engine::kVm);
    }
    EXPECT_EQ(transcripts[0], transcripts[1]);
  }
}

TEST(BytecodeDiff, OptimizerShrinksCodeAndConservesStepCost) {
  auto compiled_field_expr = [](const char* env) {
    OptEnv guard(env);
    auto registry = make_opt_registry();
    const auto cls = registry->find_class("Hotspot");
    const MethodDef* method = cls->find_method("fieldExpr");
    const minilang::CompiledMethod* code =
        &minilang::ensure_compiled(*registry, cls, *method);
    // Keep the registry alive through the shared compiled slot.
    struct Held {
      std::shared_ptr<ClassRegistry> registry;
      const minilang::CompiledMethod* code;
    };
    return Held{registry, code};
  };
  const auto unopt = compiled_field_expr("0");
  const auto opt = compiled_field_expr("1");
  ASSERT_NE(unopt.code, nullptr);
  ASSERT_NE(opt.code, nullptr);
  EXPECT_LT(opt.code->code.size(), unopt.code->code.size());
  // Every eliminated instruction folded its unit cost into a retained
  // successor, so the static cost total is invariant — the basis of
  // step-limit parity.
  auto total_cost = [](const minilang::CompiledMethod& m) {
    return std::accumulate(
        m.code.begin(), m.code.end(), std::size_t{0},
        [](std::size_t acc, const minilang::Insn& i) { return acc + i.cost; });
  };
  EXPECT_EQ(total_cost(*opt.code), total_cost(*unopt.code));
  EXPECT_EQ(total_cost(*unopt.code), unopt.code->code.size());
}

TEST(BytecodeDiff, StepLimitParityAcrossBudgetSweep) {
  // The observable outcome (value, error text, or "step limit exceeded")
  // must match between optimized and unoptimized bytecode at EVERY budget,
  // not just generous ones — this is what the cost-folding rule guarantees.
  for (std::size_t budget = 1; budget <= 160; ++budget) {
    std::string outcomes[2];
    for (int on = 0; on < 2; ++on) {
      OptEnv env(on == 0 ? "0" : "1");
      auto registry = make_opt_registry();
      InterpOptions options;
      options.max_steps = budget;
      try {
        auto obj = minilang::instantiate(*registry, "Hotspot", {}, options);
        Value v = minilang::invoke_method(obj, "fieldExpr",
                                          {Value::integer(2)},
                                          /*external=*/true, options);
        outcomes[on] = "ok " + v.to_display_string();
      } catch (const EvalError& e) {
        outcomes[on] = std::string("error ") + e.what();
      }
    }
    EXPECT_EQ(outcomes[0], outcomes[1]) << "budget " << budget;
  }
}

TEST(BytecodeDiff, InlineCacheHitAndGuardMissAgreeWithInterpreter) {
  OptEnv env("1");  // IC slots are allocated by the optimizer
  auto registry = std::make_shared<ClassRegistry>();
  auto add_class = [&](const std::string& name, const std::string& body) {
    auto cls = std::make_shared<ClassDef>();
    cls->name = name;
    MethodDef m;
    m.name = "ping";
    m.source = body;
    auto parsed = minilang::parse_block_source(body);
    ASSERT_TRUE(parsed.ok());
    m.body = std::move(parsed).take();
    cls->methods.push_back(std::move(m));
    registry->register_class(cls);
  };
  add_class("Alpha", "return \"alpha\";");
  add_class("Beta", "return \"beta\";");
  {
    auto cls = std::make_shared<ClassDef>();
    cls->name = "Driver";
    MethodDef m;
    m.name = "relay";
    m.params = {"target"};
    m.source = "return target.ping();";
    auto parsed = minilang::parse_block_source(m.source);
    ASSERT_TRUE(parsed.ok());
    m.body = std::move(parsed).take();
    cls->methods.push_back(std::move(m));
    registry->register_class(cls);
  }

  auto driver = minilang::instantiate(*registry, "Driver");
  auto alpha = minilang::instantiate(*registry, "Alpha");
  auto beta = minilang::instantiate(*registry, "Beta");
  auto& hits = obs::counter("psf.minilang.ic_hits");
  auto& misses = obs::counter("psf.minilang.ic_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  // The same polymorphic sequence under both engines: fill on Alpha, hit on
  // Alpha, guard-miss on Beta (twice), then a receiver with no method.
  const std::vector<Value> receivers = {
      Value::object(alpha), Value::object(alpha), Value::object(beta),
      Value::object(beta),  Value::object(alpha), Value::integer(9)};
  std::string transcripts[2];
  const Engine engines[2] = {Engine::kVm, Engine::kOracle};
  for (int i = 0; i < 2; ++i) {
    std::ostringstream os;
    for (const Value& receiver : receivers) {
      os << call_outcome(driver, "relay", {receiver}, engines[i]) << "\n";
    }
    transcripts[i] = os.str();
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_NE(transcripts[0].find("ok string:alpha"), std::string::npos);
  EXPECT_NE(transcripts[0].find("ok string:beta"), std::string::npos);
  // The bytecode pass filled the cache on Alpha, then hit it at least once
  // and guard-missed on every Beta dispatch.
  EXPECT_GT(hits.value(), hits_before);
  EXPECT_GT(misses.value(), misses_before);
}

TEST(BytecodeDiff, VigPrecompilesViewMethods) {
  ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_member());
  ASSERT_TRUE(def.ok());
  auto cls = vig.generate(def.value());
  ASSERT_TRUE(cls.ok());
  std::size_t scripted = 0;
  for (const MethodDef& m : cls.value()->methods) scripted += !m.is_native;
  EXPECT_GT(scripted, 0u);
  EXPECT_EQ(vig.stats().methods_compiled, scripted);
}

}  // namespace
}  // namespace psf
