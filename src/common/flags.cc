#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.h"

namespace dear {
namespace {

const char* TypeName(int type) {
  switch (type) {
    case 0: return "string";
    case 1: return "int";
    case 2: return "double";
    case 3: return "bool";
  }
  return "?";
}

}  // namespace

void FlagParser::AddString(const std::string& name, std::string default_value,
                           std::string help) {
  flags_[name] = {Type::kString, default_value, std::move(default_value),
                  std::move(help)};
}

void FlagParser::AddInt(const std::string& name, int default_value,
                        std::string help) {
  const std::string v = std::to_string(default_value);
  flags_[name] = {Type::kInt, v, v, std::move(help)};
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           std::string help) {
  const std::string v = std::to_string(default_value);
  flags_[name] = {Type::kDouble, v, v, std::move(help)};
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         std::string help) {
  const std::string v = default_value ? "true" : "false";
  flags_[name] = {Type::kBool, v, v, std::move(help)};
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end())
    return Status::InvalidArgument("unknown flag --" + name);
  Flag& flag = it->second;
  char* end = nullptr;
  switch (flag.type) {
    case Type::kString:
      break;
    case Type::kInt: {
      errno = 0;
      const long v = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0')
        return Status::InvalidArgument("--" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      // GetInt reads an int: a wider value would wrap.
      if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max())
        return Status::InvalidArgument("--" + name +
                                       " is out of range, got '" + value +
                                       "'");
      break;
    }
    case Type::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0')
        return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                       value + "'");
      // No flag takes NaN or an infinity; 1e999 overflows to one.
      if (!std::isfinite(v))
        return Status::InvalidArgument("--" + name +
                                       " expects a finite number, got '" +
                                       value + "'");
      break;
    }
    case Type::kBool:
      if (value != "true" && value != "false")
        return Status::InvalidArgument("--" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      break;
  }
  flag.value = value;
  return Status::Ok();
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      DEAR_RETURN_IF_ERROR(SetValue(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    // --name value, or bare --flag for booleans.
    auto it = flags_.find(body);
    if (it == flags_.end())
      return Status::InvalidArgument("unknown flag --" + body);
    if (it->second.type == Type::kBool &&
        (i + 1 >= argc || (std::string(argv[i + 1]) != "true" &&
                           std::string(argv[i + 1]) != "false"))) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc)
      return Status::InvalidArgument("--" + body + " needs a value");
    DEAR_RETURN_IF_ERROR(SetValue(body, argv[++i]));
  }
  return Status::Ok();
}

const std::string& FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  DEAR_CHECK_MSG(it != flags_.end(), "flag not registered: " + name);
  return it->second.value;
}

int FlagParser::GetInt(const std::string& name) const {
  return static_cast<int>(std::strtol(GetString(name).c_str(), nullptr, 10));
}

double FlagParser::GetDouble(const std::string& name) const {
  return std::strtod(GetString(name).c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name) const {
  return GetString(name) == "true";
}

std::string FlagParser::Usage() const {
  std::string out;
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (" + TypeName(static_cast<int>(flag.type)) +
           ", default " + flag.default_value + ")  " + flag.help + "\n";
  }
  return out;
}

}  // namespace dear
