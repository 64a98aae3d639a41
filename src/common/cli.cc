#include "common/cli.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace spinner {

Status CommandLine::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) continue;  // positional; ignored
    arg.remove_prefix(2);
    if (arg.empty()) {
      return Status::InvalidArgument("empty flag name: '--'");
    }
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
  return Status::OK();
}

const std::string* CommandLine::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

int64_t CommandLine::GetInt(const std::string& name, int64_t def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  int64_t v = 0;
  SPINNER_CHECK(ParseInt64(*value, &v))
      << "flag --" << name << " is not an integer: " << *value;
  return v;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  double v = 0;
  SPINNER_CHECK(ParseDouble(*value, &v))
      << "flag --" << name << " is not a number: " << *value;
  return v;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  return *value == "true" || *value == "1" || *value == "yes";
}

bool CommandLine::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::vector<std::string> CommandLine::UnreadFlags() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) unread.push_back(name);
  }
  return unread;
}

}  // namespace spinner
