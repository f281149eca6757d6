// Minimal command-line flag parser for the benchmark and example binaries.
//
// Supports `--name=value` and `--name value` syntax plus boolean
// `--name` / `--no-name` (an explicit boolean value must be true, false, 1
// or 0, and only `--name=` takes one). Unknown flags abort with a usage
// message so that a typo in a sweep script fails loudly instead of silently
// running defaults.

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace actop {

class Flags {
 public:
  // Registers flags before parsing. `help` is shown by --help.
  void DefineInt(const std::string& name, int64_t default_value, const std::string& help);
  void DefineDouble(const std::string& name, double default_value, const std::string& help);
  void DefineBool(const std::string& name, bool default_value, const std::string& help);
  void DefineString(const std::string& name, const std::string& default_value,
                    const std::string& help);

  // Parses argv. On --help prints usage and exits(0). On error prints a
  // message and exits(2).
  void Parse(int argc, char** argv);

  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };

  struct Flag {
    Type type;
    std::string help;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
  };

  const Flag& Lookup(const std::string& name, Type type) const;
  void PrintUsageAndExit(const char* argv0, int code) const;

  std::map<std::string, Flag> flags_;
};

}  // namespace actop

#endif  // SRC_COMMON_FLAGS_H_
