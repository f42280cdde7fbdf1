// Minimal command-line option parser for benches and examples.
//
// Accepts "--key=value", "--key value" and boolean "--flag" forms.  Unknown
// options are an error (exit status 2) so typos in benchmark sweeps fail
// loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hdem {

class Cli {
 public:
  Cli(int argc, char** argv);

  // Declare options (with help text) before reading them; finish() then
  // verifies every option given on the command line was declared.
  bool flag(const std::string& name, const std::string& help);
  std::int64_t integer(const std::string& name, std::int64_t def,
                       const std::string& help);
  double real(const std::string& name, double def, const std::string& help);
  std::string str(const std::string& name, const std::string& def,
                  const std::string& help);
  // String constrained to one of `allowed`; any other value is an error
  // listing the alternatives (used for reduction-strategy names).
  std::string choice(const std::string& name, const std::string& def,
                     const std::vector<std::string>& allowed,
                     const std::string& help);
  // Comma-separated list of integers, e.g. --procs=1,2,4,8.
  std::vector<std::int64_t> integer_list(const std::string& name,
                                         const std::vector<std::int64_t>& def,
                                         const std::string& help);

  // Returns true if execution should stop (--help given or an error was
  // reported).  Prints usage/help or the error to stdout/stderr.  The
  // program then exits with exit_code(): 0 after --help, 2 after an error,
  // so a script with a mistyped or removed flag fails instead of passing
  // without running.
  bool finish();
  int exit_code() const { return help_requested_ || errors_.empty() ? 0 : 2; }

  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> lookup(const std::string& name);
  void declare(const std::string& name, const std::string& kind,
               const std::string& def, const std::string& help);

  std::string program_;
  std::map<std::string, std::string> given_;
  std::vector<std::string> order_;  // positional/ parse errors
  struct Decl {
    std::string name, kind, def, help;
  };
  std::vector<Decl> decls_;
  std::vector<std::string> errors_;
  bool help_requested_ = false;
};

}  // namespace hdem
