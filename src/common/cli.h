// Tiny command-line flag parser for the example and bench binaries.
// Supports --name=value and --name value forms plus bare boolean flags.
#ifndef SPINNER_COMMON_CLI_H_
#define SPINNER_COMMON_CLI_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace spinner {

/// Parses argv into a name->value map and answers typed lookups with
/// defaults. Every lookup marks its flag as read, so once a binary has
/// read all the flags it understands, UnreadFlags() names the typos.
class CommandLine {
 public:
  /// Parses flags; non-flag arguments are ignored. Returns an error on
  /// malformed input (e.g. "--" with no name).
  Status Parse(int argc, const char* const* argv);

  /// Typed getters; return `def` when the flag is absent and CHECK-fail on
  /// unparsable values (a typo in a bench invocation should be loud).
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// True iff the flag appeared on the command line.
  bool Has(const std::string& name) const;

  /// Flags that appeared on the command line but were never looked up by
  /// a getter or Has(), in name order.
  std::vector<std::string> UnreadFlags() const;

 private:
  /// Finds `name` and marks it as read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace spinner

#endif  // SPINNER_COMMON_CLI_H_
