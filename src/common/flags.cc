#include "src/common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"

namespace actop {

void Flags::DefineInt(const std::string& name, int64_t default_value, const std::string& help) {
  Flag f;
  f.type = Type::kInt;
  f.help = help;
  f.int_value = default_value;
  ACTOP_CHECK(flags_.emplace(name, std::move(f)).second);
}

void Flags::DefineDouble(const std::string& name, double default_value, const std::string& help) {
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.double_value = default_value;
  ACTOP_CHECK(flags_.emplace(name, std::move(f)).second);
}

void Flags::DefineBool(const std::string& name, bool default_value, const std::string& help) {
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.bool_value = default_value;
  ACTOP_CHECK(flags_.emplace(name, std::move(f)).second);
}

void Flags::DefineString(const std::string& name, const std::string& default_value,
                         const std::string& help) {
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.string_value = default_value;
  ACTOP_CHECK(flags_.emplace(name, std::move(f)).second);
}

void Flags::PrintUsageAndExit(const char* argv0, int code) const {
  std::fprintf(stderr, "usage: %s [flags]\n", argv0);
  for (const auto& [name, flag] : flags_) {
    std::string def;
    switch (flag.type) {
      case Type::kInt:
        def = std::to_string(flag.int_value);
        break;
      case Type::kDouble:
        def = std::to_string(flag.double_value);
        break;
      case Type::kBool:
        def = flag.bool_value ? "true" : "false";
        break;
      case Type::kString:
        def = flag.string_value;
        break;
    }
    std::fprintf(stderr, "  --%s (default %s): %s\n", name.c_str(), def.c_str(),
                 flag.help.c_str());
  }
  std::exit(code);
}

void Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit(argv[0], 0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      PrintUsageAndExit(argv[0], 2);
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    bool have_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      have_value = true;
    } else {
      name = body;
    }

    bool negated = false;
    auto it = flags_.find(name);
    if (it == flags_.end() && name.rfind("no-", 0) == 0) {
      it = flags_.find(name.substr(3));
      negated = it != flags_.end() && it->second.type == Type::kBool;
      if (!negated) {
        it = flags_.end();
      }
    }
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      PrintUsageAndExit(argv[0], 2);
    }
    Flag& flag = it->second;

    if (flag.type == Type::kBool) {
      // The negated form takes no value: --no-X=true would otherwise mean --X.
      const bool is_true = value == "true" || value == "1";
      if (have_value && (negated || (!is_true && value != "false" && value != "0"))) {
        std::fprintf(stderr, "bad value for --%s: %s\n", name.c_str(), value.c_str());
        PrintUsageAndExit(argv[0], 2);
      }
      flag.bool_value = have_value ? is_true : !negated;
      continue;
    }

    if (!have_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        PrintUsageAndExit(argv[0], 2);
      }
      value = argv[++i];
    }
    char* end = nullptr;
    errno = 0;
    switch (flag.type) {
      case Type::kInt:
        flag.int_value = std::strtoll(value.c_str(), &end, 10);
        break;
      case Type::kDouble:
        flag.double_value = std::strtod(value.c_str(), &end);
        break;
      case Type::kString:
        flag.string_value = value;
        end = nullptr;
        break;
      case Type::kBool:
        break;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str() || errno == ERANGE)) {
      std::fprintf(stderr, "bad value for --%s: %s\n", name.c_str(), value.c_str());
      PrintUsageAndExit(argv[0], 2);
    }
  }
}

const Flags::Flag& Flags::Lookup(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  ACTOP_CHECK(it != flags_.end());
  ACTOP_CHECK(it->second.type == type);
  return it->second;
}

int64_t Flags::GetInt(const std::string& name) const { return Lookup(name, Type::kInt).int_value; }

double Flags::GetDouble(const std::string& name) const {
  return Lookup(name, Type::kDouble).double_value;
}

bool Flags::GetBool(const std::string& name) const { return Lookup(name, Type::kBool).bool_value; }

const std::string& Flags::GetString(const std::string& name) const {
  return Lookup(name, Type::kString).string_value;
}

}  // namespace actop
