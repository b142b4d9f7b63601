#include "config/xml.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace tunio::cfg {

namespace {

struct Tag {
  std::string name;
  bool closing = false;
  std::size_t end = 0;  ///< index just past '>'
};

/// Scans the tag starting at `pos` (xml[pos] == '<').
Tag scan_tag(const std::string& xml, std::size_t pos) {
  Tag tag;
  std::size_t i = pos + 1;
  if (i < xml.size() && xml[i] == '/') {
    tag.closing = true;
    ++i;
  }
  const std::size_t close = xml.find('>', i);
  TUNIO_CHECK_MSG(close != std::string::npos, "unterminated XML tag");
  tag.name = xml.substr(i, close - i);
  // Trim trailing whitespace/attributes (we support none).
  const std::size_t space = tag.name.find_first_of(" \t\n\r");
  if (space != std::string::npos) tag.name.resize(space);
  tag.end = close + 1;
  return tag;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string to_xml(const Configuration& config) {
  const ConfigSpace& space = config.space();
  std::ostringstream os;
  os << "<Parameters>\n";
  for (Layer layer : {Layer::kHdf5, Layer::kMpiIo, Layer::kLustre}) {
    os << "  <" << layer_name(layer) << ">\n";
    for (std::size_t i = 0; i < space.num_parameters(); ++i) {
      const Parameter& p = space.parameter(i);
      if (p.layer != layer) continue;
      os << "    <" << p.name << ">" << config.value(i) << "</" << p.name
         << ">\n";
    }
    os << "  </" << layer_name(layer) << ">\n";
  }
  os << "</Parameters>\n";
  return os.str();
}

Configuration from_xml(const ConfigSpace& space, const std::string& xml) {
  Configuration config = space.default_configuration();
  std::vector<std::string> stack;
  std::size_t pos = 0;
  while ((pos = xml.find('<', pos)) != std::string::npos) {
    const Tag tag = scan_tag(xml, pos);
    if (tag.closing) {
      TUNIO_CHECK_MSG(!stack.empty() && stack.back() == tag.name,
                      "mismatched closing tag: " + tag.name);
      stack.pop_back();
      pos = tag.end;
      continue;
    }
    // Leaf parameter tags appear at depth 2 (Parameters > Layer > param).
    if (stack.size() == 2) {
      const std::size_t close_open = xml.find('<', tag.end);
      TUNIO_CHECK_MSG(close_open != std::string::npos,
                      "unterminated value for " + tag.name);
      const std::string text = trim(xml.substr(tag.end, close_open - tag.end));
      TUNIO_CHECK_MSG(space.has(tag.name), "unknown parameter tag: " + tag.name);
      const std::size_t param = space.index_of(tag.name);
      std::uint64_t value = 0;
      const auto [end, error] =
          std::from_chars(text.data(), text.data() + text.size(), value);
      TUNIO_CHECK_MSG(error == std::errc() && end == text.data() + text.size(),
                      "bad value for " + tag.name + ": " + text);
      const auto& domain = space.parameter(param).domain;
      const auto it = std::find(domain.begin(), domain.end(), value);
      TUNIO_CHECK_MSG(it != domain.end(),
                      "value not in domain of " + tag.name + ": " + text);
      config.set_index(param,
                       static_cast<std::size_t>(it - domain.begin()));
      const Tag closing = scan_tag(xml, close_open);
      TUNIO_CHECK_MSG(closing.closing && closing.name == tag.name,
                      "mismatched parameter tag: " + tag.name);
      pos = closing.end;
      continue;
    }
    stack.push_back(tag.name);
    pos = tag.end;
  }
  TUNIO_CHECK_MSG(stack.empty(), "unclosed XML tags");
  return config;
}

}  // namespace tunio::cfg
