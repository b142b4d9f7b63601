#include "minic/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/error.hpp"

namespace tunio::minic {

std::string token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "<end>";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kIntLiteral: return "int literal";
    case TokenKind::kFloatLiteral: return "float literal";
    case TokenKind::kStringLiteral: return "string literal";
    case TokenKind::kInt: return "'int'";
    case TokenKind::kDouble: return "'double'";
    case TokenKind::kStringKw: return "'string'";
    case TokenKind::kFor: return "'for'";
    case TokenKind::kWhile: return "'while'";
    case TokenKind::kIf: return "'if'";
    case TokenKind::kElse: return "'else'";
    case TokenKind::kReturn: return "'return'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kLess: return "'<'";
    case TokenKind::kLessEq: return "'<='";
    case TokenKind::kGreater: return "'>'";
    case TokenKind::kGreaterEq: return "'>='";
    case TokenKind::kEqEq: return "'=='";
    case TokenKind::kNotEq: return "'!='";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kNot: return "'!'";
  }
  return "<?>";
}

namespace {

const std::unordered_map<std::string, TokenKind>& keywords() {
  static const std::unordered_map<std::string, TokenKind> kMap = {
      {"int", TokenKind::kInt},       {"double", TokenKind::kDouble},
      {"string", TokenKind::kStringKw}, {"for", TokenKind::kFor},
      {"while", TokenKind::kWhile},   {"if", TokenKind::kIf},
      {"else", TokenKind::kElse},     {"return", TokenKind::kReturn},
  };
  return kMap;
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw SourceError("minic lex error at line " + std::to_string(line) + ": " +
                    message);
}

[[noreturn]] void fail_at(int line, int column, const std::string& message) {
  throw SourceError("minic lex error at line " + std::to_string(line) +
                    ", column " + std::to_string(column) + ": " + message);
}

}  // namespace

std::vector<Token> lex(const std::string& source) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  int line = 1;
  std::size_t line_start = 0;  // offset of the current line's first char
  const std::size_t n = source.size();

  // Every token is pushed while `i` still points at its first character,
  // so the column is always derivable from the line start.
  auto push = [&](TokenKind kind, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line;
    t.column = static_cast<int>(i - line_start) + 1;
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/')) {
        if (source[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        ++i;
      }
      if (i + 1 >= n) fail(line, "unterminated block comment");
      i += 2;
      continue;
    }
    // Identifiers / keywords.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '_')) {
        ++j;
      }
      const std::string word = source.substr(i, j - i);
      auto it = keywords().find(word);
      if (it != keywords().end()) {
        push(it->second, word);
      } else {
        push(TokenKind::kIdentifier, word);
      }
      i = j;
      continue;
    }
    // Numbers: digits with at most one '.'. Letters, '_' or a second '.'
    // glued on make the whole run one malformed literal.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '_' || source[j] == '.')) {
        ++j;
      }
      const std::string num = source.substr(i, j - i);
      Token t;
      t.line = line;
      t.column = static_cast<int>(i - line_start) + 1;
      t.text = num;
      const auto dots = std::count(num.begin(), num.end(), '.');
      const bool digits_only = std::all_of(num.begin(), num.end(), [](char d) {
        return d == '.' || std::isdigit(static_cast<unsigned char>(d));
      });
      if (!digits_only || dots > 1) {
        fail_at(line, t.column, "malformed number literal '" + num + "'");
      }
      try {
        if (dots == 1) {
          t.kind = TokenKind::kFloatLiteral;
          t.float_value = std::stod(num);
        } else {
          t.kind = TokenKind::kIntLiteral;
          t.int_value = std::stoll(num);
        }
      } catch (const std::out_of_range&) {
        fail_at(line, t.column, "number literal '" + num + "' out of range");
      }
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    // Strings.
    if (c == '"') {
      std::size_t j = i + 1;
      std::string text;
      while (j < n && source[j] != '"') {
        if (source[j] == '\n') fail(line, "newline in string literal");
        if (source[j] == '\\' && j + 1 < n) {
          ++j;  // simple escapes: keep the escaped char verbatim
        }
        text.push_back(source[j]);
        ++j;
      }
      if (j >= n) fail(line, "unterminated string literal");
      push(TokenKind::kStringLiteral, text);
      i = j + 1;
      continue;
    }
    // Operators / punctuation.
    auto two = [&](char second) {
      return i + 1 < n && source[i + 1] == second;
    };
    switch (c) {
      case '(': push(TokenKind::kLParen); ++i; break;
      case ')': push(TokenKind::kRParen); ++i; break;
      case '{': push(TokenKind::kLBrace); ++i; break;
      case '}': push(TokenKind::kRBrace); ++i; break;
      case ',': push(TokenKind::kComma); ++i; break;
      case ';': push(TokenKind::kSemicolon); ++i; break;
      case '+': push(TokenKind::kPlus); ++i; break;
      case '-': push(TokenKind::kMinus); ++i; break;
      case '*': push(TokenKind::kStar); ++i; break;
      case '/': push(TokenKind::kSlash); ++i; break;
      case '%': push(TokenKind::kPercent); ++i; break;
      case '<':
        if (two('=')) { push(TokenKind::kLessEq); i += 2; }
        else { push(TokenKind::kLess); ++i; }
        break;
      case '>':
        if (two('=')) { push(TokenKind::kGreaterEq); i += 2; }
        else { push(TokenKind::kGreater); ++i; }
        break;
      case '=':
        if (two('=')) { push(TokenKind::kEqEq); i += 2; }
        else { push(TokenKind::kAssign); ++i; }
        break;
      case '!':
        if (two('=')) { push(TokenKind::kNotEq); i += 2; }
        else { push(TokenKind::kNot); ++i; }
        break;
      case '&':
        if (two('&')) { push(TokenKind::kAndAnd); i += 2; }
        else fail(line, "stray '&'");
        break;
      case '|':
        if (two('|')) { push(TokenKind::kOrOr); i += 2; }
        else fail(line, "stray '|'");
        break;
      default:
        fail(line, std::string("unexpected character '") + c + "'");
    }
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.line = line;
  end.column = static_cast<int>(i - line_start) + 1;
  tokens.push_back(end);
  return tokens;
}

}  // namespace tunio::minic
