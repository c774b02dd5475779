// Golden-file tests for minilang::disassemble (DESIGN.md §4j/§4l): the
// listing format is part of the operator surface (vig_cli --dump-bytecode,
// compile-failure triage), so representative methods are pinned byte-for-byte
// against checked-in goldens. The three methods cover repeated field loads
// in one expression, the inline-cache slot ([ic N]) the compiler gives a
// member-call site, and the encoding of loops and branches.
//
// Regenerate after an intentional format change with:
//   disasm_golden_test --update-golden
// (custom main below — this target links gtest without gtest_main).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "minilang/compile.hpp"
#include "minilang/parser.hpp"

namespace psf::minilang {
namespace {

bool g_update_golden = false;

std::string golden_path(const std::string& name) {
  return std::string(PSF_DISASM_GOLDEN_DIR) + "/" + name + ".golden";
}

// One fixed class, compiled fresh per test.
std::shared_ptr<ClassRegistry> make_golden_registry() {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Golden";
  cls->fields.push_back({"balance", "int", Value::integer(0)});
  cls->fields.push_back({"count", "int", Value::integer(0)});
  auto add = [&](const std::string& name,
                 const std::vector<std::string>& params,
                 const std::string& body) {
    MethodDef m;
    m.name = name;
    m.params = params;
    m.source = body;
    auto parsed = parse_block_source(body);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error().message;
    m.body = std::move(parsed).take();
    cls->methods.push_back(std::move(m));
  };
  add("fieldExpr", {"n"},
      "return n + balance * balance + balance - count * count;");
  add("relay", {"target"}, "return target.ping(balance);");
  add("loops", {"n"}, R"(
      var total = 0;
      for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { continue; }
        total = total + i;
      }
      return total;)");
  registry->register_class(cls);
  return registry;
}

void check_golden(const std::string& name, const std::string& method) {
  auto registry = make_golden_registry();
  const auto cls = registry->find_class("Golden");
  ASSERT_NE(cls, nullptr);
  const MethodDef* def = cls->find_method(method);
  ASSERT_NE(def, nullptr);
  const std::string listing =
      disassemble(ensure_compiled(*registry, cls, *def));
  const std::string path = golden_path(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << listing;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with --update-golden)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(listing, want.str())
      << "disassembly drifted from " << path
      << "; if intentional, rerun with --update-golden";
}

TEST(DisasmGolden, FieldExpression) {
  check_golden("field_expr", "fieldExpr");
}

TEST(DisasmGolden, MemberCallInlineCacheSlot) {
  check_golden("member_call_ic", "relay");
}

TEST(DisasmGolden, UnoptimizedControlFlow) {
  check_golden("loops_unopt", "loops");
}

}  // namespace
}  // namespace psf::minilang

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      psf::minilang::g_update_golden = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
