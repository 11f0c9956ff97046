// Minimal --flag=value / --flag value parser shared by the command-line
// tools and the bench/ programs (bench/bench_util.h). Header-only; examples
// are built as single translation units.

#ifndef CAEE_EXAMPLES_CLI_UTIL_H_
#define CAEE_EXAMPLES_CLI_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace caee {
namespace cli {

class Args {
 public:
  /// \brief Parse `--name value` and `--name=value` pairs; `--name` alone is
  /// a boolean flag. Exits with an error on anything not starting with `--`.
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << arg << "\n";
        std::exit(2);
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      std::string key, value;
      if (eq != std::string::npos) {
        key = arg.substr(0, eq);
        value = arg.substr(eq + 1);
      } else {
        key = arg;
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          value = argv[++i];
        }  // else: boolean flag, empty value
      }
      values_[key] = value;
      order_.push_back(key);
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    try {
      size_t consumed = 0;
      const int64_t value = std::stoll(it->second, &consumed);
      if (consumed == it->second.size()) return value;
    } catch (...) {
    }
    std::cerr << "--" << name << " needs an integer, got '" << it->second
              << "'\n";
    std::exit(2);
  }

  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    try {
      size_t consumed = 0;
      const double value = std::stod(it->second, &consumed);
      if (consumed == it->second.size()) return value;
    } catch (...) {
    }
    std::cerr << "--" << name << " needs a number, got '" << it->second
              << "'\n";
    std::exit(2);
  }

  /// \brief The comma-separated items of `--name`, empty items dropped;
  /// empty when the flag is absent.
  std::vector<std::string> GetList(const std::string& name) const {
    std::vector<std::string> items;
    const std::string csv = Get(name, "");
    size_t begin = 0;
    while (begin <= csv.size()) {
      const size_t comma = csv.find(',', begin);
      const size_t end = comma == std::string::npos ? csv.size() : comma;
      if (end > begin) items.push_back(csv.substr(begin, end - begin));
      begin = end + 1;
    }
    return items;
  }

  /// \brief Abort with a usage message if an unknown flag was passed.
  void RejectUnknown(const std::vector<std::string>& known,
                     const std::string& usage) const {
    for (const auto& name : order_) {
      bool ok = false;
      for (const auto& k : known) {
        if (name == k) { ok = true; break; }
      }
      if (!ok) {
        std::cerr << "unknown flag --" << name << "\n" << usage;
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace cli
}  // namespace caee

#endif  // CAEE_EXAMPLES_CLI_UTIL_H_
