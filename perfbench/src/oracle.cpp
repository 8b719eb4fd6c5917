// Reference miss counts for the benchmark, from the simple oracle only.
//
// Reads jobs from stdin, one per line:
//
//   <key> <program-file> <line-elems> NAME=VALUE ...
//
// and prints one line per job:
//
//   <key> <address-space> <cap>:<misses> <cap>:<misses> ...
//
// over the capacity ladder line, 2*line, ... up to twice the address space.
// Every count comes from cachesim::simulate_lru (line 1) or
// cachesim::simulate_lru_lines (line > 1): one full trace replay through the
// fully-associative LruCache per capacity, never the profiling or model
// engines the benchmark checks.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "cachesim/sim.hpp"
#include "ir/parser.hpp"
#include "trace/walker.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main() {
  try {
    std::map<std::string, sdlo::ir::Program> programs;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::istringstream in(line);
      std::string key;
      std::string path;
      std::int64_t line_elems = 1;
      in >> key >> path >> line_elems;
      sdlo::sym::Env env;
      for (std::string kv; in >> kv;) {
        const auto eq = kv.find('=');
        env[kv.substr(0, eq)] = std::stoll(kv.substr(eq + 1));
      }
      auto it = programs.find(path);
      if (it == programs.end()) {
        it = programs.emplace(path, sdlo::ir::parse_program(read_file(path)))
                 .first;
      }
      const sdlo::trace::CompiledProgram cp(it->second, env);
      const auto space = static_cast<std::int64_t>(cp.address_space_size());
      std::cout << key << ' ' << space;
      for (std::int64_t cap = line_elems; cap <= 2 * space; cap *= 2) {
        const auto r = line_elems == 1
                           ? sdlo::cachesim::simulate_lru(cp, cap)
                           : sdlo::cachesim::simulate_lru_lines(cp, cap,
                                                                line_elems);
        std::cout << ' ' << cap << ':' << r.misses;
      }
      std::cout << '\n' << std::flush;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_oracle: " << e.what() << "\n";
    return 1;
  }
}
