// A small owned JSON document model: parse, build, serialize.
//
// The stack speaks JSON on every wire — metric snapshots, Chrome-trace
// files, bench reports, cached results, CI baselines. `Json` is the
// shared value tree: a strict recursive-descent parser for arbitrary
// JSON documents plus an ordered-object builder/serializer, so tools
// (the perf gate), the result cache and tests (trace well-formedness)
// read and write those documents with one implementation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tunio::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered, so documents serialize the way they were built.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  static Json boolean(bool value);
  static Json number(double value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw `Error` on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& items() const;
  const Object& members() const;

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;

  /// Builder mutators (throw on type mismatch).
  Json& push_back(Json value);            ///< array append
  Json& set(std::string key, Json value); ///< object upsert

  /// Serializes; `indent >= 0` pretty-prints with that step.
  std::string dump(int indent = -1) const;

  /// Parses a complete JSON document (trailing garbage rejected).
  /// Throws `Error` with position info on malformed input.
  static Json parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Escapes `text` as a JSON string literal, including the quotes.
std::string json_quote(const std::string& text);

/// Shortest lossless rendering of a double (integers print bare).
std::string json_number(double value);

}  // namespace tunio::obs
