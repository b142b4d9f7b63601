// Tests for the mini-C frontend: lexer, parser, printer normalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"

namespace tunio::minic {
namespace {

TEST(Lexer, TokenKinds) {
  const auto tokens = lex("int x = 42; double y = 3.5; string s = \"hi\";");
  ASSERT_GE(tokens.size(), 15u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_EQ(tokens[8].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[8].float_value, 3.5);
  EXPECT_EQ(tokens[13].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[13].text, "hi");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(Lexer, TracksLineAndColumn) {
  const auto tokens = lex("int x = 1;\n  x = 2;");
  // "int" at 1:1, "x" at 1:5; second-line "x" at 2:3 (after the indent).
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[1].line, 1);
  EXPECT_EQ(tokens[1].column, 5);
  EXPECT_EQ(tokens[5].line, 2);
  EXPECT_EQ(tokens[5].column, 3);
}

TEST(Lexer, ColumnResetsAfterBlockComment) {
  const auto tokens = lex("/* multi\nline */ int y;");
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[0].line, 2);
  EXPECT_EQ(tokens[0].column, 9);  // after "line */ "
}

TEST(Lexer, BadNumberLiteralsAreLocatedSourceErrors) {
  // Out-of-range and malformed literals used to escape as
  // std::out_of_range or lex as a truncated prefix (1.2.3 read as 1.2).
  const auto expect_error = [](const std::string& source,
                               const std::string& location) {
    try {
      lex(source);
      ADD_FAILURE() << "lexed: " << source;
    } catch (const SourceError& e) {
      EXPECT_NE(std::string(e.what()).find(location), std::string::npos)
          << e.what();
    }
  };
  expect_error("int x = 99999999999999999999;", "line 1, column 9");
  expect_error("double x = 1.2.3;", "line 1, column 12");
  expect_error("double x =\n  1e999;", "line 2, column 3");
  const auto tokens = lex("9223372036854775807 2.");
  EXPECT_EQ(tokens[0].int_value, std::numeric_limits<std::int64_t>::max());
  EXPECT_DOUBLE_EQ(tokens[1].float_value, 2.0);
}

TEST(Parser, PropagatesLineAndColumnIntoAst) {
  const Program program = parse(
      "int main()\n"
      "{\n"
      "  int a = 1;\n"
      "  if (a > 0)\n"
      "  {\n"
      "    a = f(a + 2);\n"
      "  }\n"
      "  return a;\n"
      "}\n");
  const Stmt& body = *program.functions[0].body;
  const Stmt& decl = *body.statements[0];
  EXPECT_EQ(decl.line, 3);
  EXPECT_EQ(decl.col, 3);
  const Stmt& branch = *body.statements[1];
  EXPECT_EQ(branch.line, 4);
  EXPECT_EQ(branch.col, 3);
  const Stmt& assign = *branch.body->statements[0];
  EXPECT_EQ(assign.line, 6);
  EXPECT_EQ(assign.col, 5);
  // The call expression carries its own position...
  const Expr& call = *assign.value;
  EXPECT_EQ(call.kind, ExprKind::kCall);
  EXPECT_EQ(call.line, 6);
  EXPECT_EQ(call.col, 9);
  // ...and clones preserve both.
  const StmtPtr copy = clone(assign);
  EXPECT_EQ(copy->line, 6);
  EXPECT_EQ(copy->col, 5);
  EXPECT_EQ(copy->value->col, 9);
}

TEST(Lexer, OperatorsAndComments) {
  const auto tokens = lex(R"(
    // line comment
    a <= b && c != d || !e; /* block
    comment */ f >= g == h;
  )");
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens) kinds.push_back(t.kind);
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), TokenKind::kLessEq) !=
              kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), TokenKind::kAndAnd) !=
              kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), TokenKind::kNotEq) !=
              kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), TokenKind::kOrOr) !=
              kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), TokenKind::kNot) !=
              kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), TokenKind::kGreaterEq) !=
              kinds.end());
}

TEST(Lexer, LineTracking) {
  const auto tokens = lex("int a;\nint b;\n\nint c;");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[3].line, 2);
  EXPECT_EQ(tokens[6].line, 4);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(lex("\"unterminated"), SourceError);
  EXPECT_THROW(lex("a @ b"), SourceError);
  EXPECT_THROW(lex("a & b"), SourceError);
  EXPECT_THROW(lex("/* open"), SourceError);
}

TEST(Parser, FunctionStructure) {
  const Program program = parse(R"(
    int helper(int a, double b)
    {
      return a;
    }
    int main()
    {
      int x = helper(1, 2.0);
      return x;
    }
  )");
  ASSERT_EQ(program.functions.size(), 2u);
  EXPECT_EQ(program.functions[0].name, "helper");
  ASSERT_EQ(program.functions[0].params.size(), 2u);
  EXPECT_EQ(program.functions[0].params[1].first, "double");
  EXPECT_NE(program.find("main"), nullptr);
  EXPECT_EQ(program.find("nope"), nullptr);
}

TEST(Parser, ControlFlowShapes) {
  const Program program = parse(R"(
    int main()
    {
      int sum = 0;
      for (int i = 0; i < 10; i = i + 1)
      {
        if (i % 2 == 0)
        {
          sum = sum + i;
        }
        else
        {
          sum = sum - 1;
        }
      }
      while (sum > 100)
      {
        sum = sum / 2;
      }
      return sum;
    }
  )");
  const Stmt& body = *program.functions[0].body;
  ASSERT_EQ(body.kind, StmtKind::kBlock);
  ASSERT_EQ(body.statements.size(), 4u);
  EXPECT_EQ(body.statements[0]->kind, StmtKind::kDecl);
  EXPECT_EQ(body.statements[1]->kind, StmtKind::kFor);
  EXPECT_EQ(body.statements[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body.statements[3]->kind, StmtKind::kReturn);
  const Stmt& loop = *body.statements[1];
  ASSERT_NE(loop.init, nullptr);
  ASSERT_NE(loop.cond, nullptr);
  ASSERT_NE(loop.update, nullptr);
  const Stmt& branch = *loop.body->statements[0];
  EXPECT_EQ(branch.kind, StmtKind::kIf);
  EXPECT_NE(branch.else_body, nullptr);
}

TEST(Parser, UniqueStatementIds) {
  const Program program = parse(R"(
    int main()
    {
      int a = 1;
      int b = 2;
      for (int i = 0; i < 3; i = i + 1)
      {
        a = a + b;
      }
      return a;
    }
  )");
  std::set<int> ids;
  std::function<void(const Stmt&)> collect = [&](const Stmt& stmt) {
    EXPECT_TRUE(ids.insert(stmt.id).second) << "duplicate id " << stmt.id;
    if (stmt.init) collect(*stmt.init);
    if (stmt.update) collect(*stmt.update);
    if (stmt.body) collect(*stmt.body);
    if (stmt.else_body) collect(*stmt.else_body);
    for (const auto& child : stmt.statements) collect(*child);
  };
  collect(*program.functions[0].body);
  EXPECT_EQ(program.next_stmt_id, static_cast<int>(ids.size()));
}

TEST(Parser, OperatorPrecedence) {
  const Program program = parse(R"(
    int main()
    {
      int x = 1 + 2 * 3;
      return x;
    }
  )");
  const Expr& init = *program.functions[0].body->statements[0]->value;
  ASSERT_EQ(init.kind, ExprKind::kBinary);
  EXPECT_EQ(init.text, "+");  // '*' binds tighter
  EXPECT_EQ(init.children[1]->text, "*");
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("int main() { int x = ; }"), SourceError);
  EXPECT_THROW(parse("int main() { for i; }"), SourceError);
  EXPECT_THROW(parse("main() { }"), Error);
  EXPECT_THROW(parse("int main() { x = 1 }"), SourceError);  // missing ';'
}

TEST(Printer, NormalizesToOneStatementPerLine) {
  const Program program =
      parse("int main() { int a = 1; int b = 2; return a + b; }");
  const std::string printed = print(program);
  // Braces on their own lines, one statement per line.
  EXPECT_NE(printed.find("{\n"), std::string::npos);
  EXPECT_NE(printed.find("int a = 1;\n"), std::string::npos);
  EXPECT_NE(printed.find("int b = 2;\n"), std::string::npos);
  EXPECT_NE(printed.find("return a + b;\n"), std::string::npos);
}

TEST(Printer, RoundTripIsStable) {
  const std::string source = R"(
    int work(int n)
    {
      int total = 0;
      for (int i = 0; i < n; i = i + 1)
      {
        if (i % 3 == 0 && n > 2)
        {
          total = total + i * 2;
        }
      }
      return total;
    }
    int main()
    {
      return work(10);
    }
  )";
  const std::string once = print(parse(source));
  const std::string twice = print(parse(once));
  EXPECT_EQ(once, twice);  // printing is a fixpoint after one pass
}

TEST(Printer, FilteredPrintDropsStatements) {
  const Program program = parse(R"(
    int main()
    {
      int keep = 1;
      int drop = 2;
      return keep;
    }
  )");
  // Keep everything except the 'drop' declaration.
  const std::string filtered = print(program, [](const Stmt& stmt) {
    return !(stmt.kind == StmtKind::kDecl && stmt.name == "drop");
  });
  EXPECT_NE(filtered.find("int keep = 1;"), std::string::npos);
  EXPECT_EQ(filtered.find("int drop"), std::string::npos);
}

TEST(Printer, ParenthesizationPreservesSemantics) {
  const Program program =
      parse("int main() { int x = (1 + 2) * 3; return x; }");
  const std::string printed = print(program);
  EXPECT_NE(printed.find("(1 + 2) * 3"), std::string::npos);
}

TEST(Clone, DeepCopyIsIndependent) {
  const Program program = parse("int main() { int a = 5; return a; }");
  StmtPtr copy = clone(*program.functions[0].body);
  EXPECT_EQ(copy->statements.size(), 2u);
  copy->statements.clear();
  EXPECT_EQ(program.functions[0].body->statements.size(), 2u);
}

TEST(PrintExpr, RendersExpression) {
  const Program program = parse("int main() { return 1 + 2 * x; }");
  const Expr& e = *program.functions[0].body->statements[0]->value;
  EXPECT_EQ(print_expr(e), "1 + 2 * x");
}

/// Random-program generator for round-trip property testing: emits
/// structurally valid mini-C with nested control flow and arithmetic.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    vars_ = {"a", "b", "c"};
    std::string body = "  int a = 1;\n  int b = 2;\n  int c = 3;\n";
    const int statements = static_cast<int>(rng_.uniform_int(2, 6));
    for (int i = 0; i < statements; ++i) {
      body += statement(2);
    }
    body += "  return a + b;\n";
    return "int main()\n{\n" + body + "}\n";
  }

 private:
  std::string indent(int depth) { return std::string(depth, ' '); }

  std::string expr(int depth) {
    if (depth <= 0 || rng_.chance(0.4)) {
      return rng_.chance(0.5) ? rng_.choice(vars_)
                              : std::to_string(rng_.uniform_int(0, 99));
    }
    static const std::vector<std::string> ops{"+", "-", "*", "%"};
    // '%' and '/' by non-literal risk divide-by-zero at run time; the
    // round-trip property only needs parseability, and denominators are
    // kept as non-zero literals.
    const std::string& op = rng_.choice(ops);
    const std::string rhs =
        (op == "%") ? std::to_string(rng_.uniform_int(1, 9)) : expr(depth - 1);
    return "(" + expr(depth - 1) + " " + op + " " + rhs + ")";
  }

  std::string statement(int depth) {
    const auto kind = rng_.uniform_int(0, 2);
    const std::string pad = indent(depth);
    if (kind == 0) {
      return pad + rng_.choice(vars_) + " = " + expr(2) + ";\n";
    }
    if (kind == 1) {
      return pad + "if (" + expr(1) + " < " + expr(1) + ")\n" + pad + "{\n" +
             statement(depth + 2) + pad + "}\n";
    }
    const std::string v = "i" + std::to_string(counter_++);
    const std::string body = statement(depth + 2);
    return pad + "for (int " + v + " = 0; " + v + " < 3; " + v + " = " + v +
           " + 1)\n" + pad + "{\n" + body + pad + "}\n";
  }

  Rng rng_;
  std::vector<std::string> vars_;
  int counter_ = 0;
};

/// Property: for any generated program, print(parse(x)) is a fixpoint
/// after one normalization pass.
class RoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripProperty, PrintParsePrintIsStable) {
  ProgramGenerator generator(GetParam());
  for (int i = 0; i < 20; ++i) {
    const std::string source = generator.generate();
    const std::string once = print(parse(source));
    const std::string twice = print(parse(once));
    EXPECT_EQ(once, twice) << "source was:\n" << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace tunio::minic
