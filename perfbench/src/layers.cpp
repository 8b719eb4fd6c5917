// Traced per-layer run of the benchmark.
//
// Replays the benchmark's requests in-process. Usage:
//
//   perfbench_layers --jobs FILE --trace-out FILE
//
// Each job line is
//
//   <group> <verb> <program-file> <line> <cap> NAME=VALUE ...
//
// with verb one of sweep, sweep-symbolic, misses, advise, lint, analyze.
// Jobs of the groups curve and predict are CLI requests; jobs of the group
// serve-mix are daemon requests.
//
// Every job runs along two paths:
//
//   driver   the call the program itself makes for the request. For a CLI
//            job, what `sdlo sweep|misses|advise --json` runs after reading
//            its input: parse, analysis::run_sweep / run_misses / advise,
//            render. For a serve job, serve::Service::handle_line on the
//            request line plus render_response, with the memo cache off.
//   layered  the same work as a sequence of calls into the layers' public
//            entry points, mirroring the driver, with one span around each
//            call. Layer spans never nest, so a span's duration is its self
//            time.
//
// Each job runs five times in a row: driver, layered untraced, layered
// traced, layered untraced, driver. Per group, stdout gets the driver wall
// time (mean of the two driver runs) next to the sum of the traced run's
// layer self times, and the unaccounted share between them; the tracing
// overhead (traced layered run against the mean of the untraced ones); and
// how many jobs' layered payload differs from the driver's (the accounting
// then describes a stale path). Some per-layer rates need calls the request path never
// makes: a counting trace walk, the LRU oracle, and the dependence analysis
// that analysis::advise runs inside itself. These probes run once per job,
// after its five runs and outside every timed wall, and count toward no
// accounting. Deterministic counts (accesses, candidates scored, miss
// totals) must repeat exactly in the three layered runs, and the probe
// walk must see as many accesses as the profiler, else exit 1. The traced run's spans are written
// as trace-event JSON; the last stdout line is a JSON object with the
// per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/advisor.hpp"
#include "analysis/dependence.hpp"
#include "analysis/lint.hpp"
#include "analysis/misses_driver.hpp"
#include "analysis/sweep_driver.hpp"
#include "cachesim/sim.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "model/analyzer.hpp"
#include "model/symbolic_sweep.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "trace/walker.hpp"

namespace {

using namespace sdlo;
using Clock = std::chrono::steady_clock;

struct Job {
  std::string group;
  std::string verb;
  std::string path;
  std::string text;
  std::int64_t line = 1;
  std::int64_t cap = 0;
  sym::Env env;
  std::string wire;  ///< the serve request line (serve-mix jobs)

  bool served() const { return group == "serve-mix"; }
};

struct Event {
  const char* name;
  std::int64_t req;
  bool probe;
  double start_us;
  double dur_us;
};

/// In-memory span buffer; spans of one request share `req`.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  void record(const char* name, bool probe, double start, double dur) {
    events_.push_back({name, req_, probe, start, dur});
  }
  void begin_request(std::int64_t id) { req_ = id; }
  const std::vector<Event>& events() const { return events_; }

 private:
  bool on_;
  Clock::time_point t0_;
  std::int64_t req_ = 0;
  std::vector<Event> events_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& t, const char* name, bool probe = false)
      : t_(t), name_(name), probe_(probe), start_(t.on() ? t.now_us() : 0) {}
  ~Span() {
    if (t_.on()) t_.record(name_, probe_, start_, t_.now_us() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  const char* name_;
  bool probe_;
  double start_;
};

/// Deterministic counts; all layered runs must agree exactly.
using Counts = std::map<std::string, std::uint64_t>;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The serve wire line of a job, as a client would send it.
std::string request_line(const Job& j) {
  std::ostringstream os;
  const bool symbolic = j.verb == "sweep-symbolic";
  os << "{\"id\":1,\"verb\":\"" << (symbolic ? "sweep" : j.verb)
     << "\",\"program\":\"" << serve::json_escape(j.text) << "\"";
  if (j.verb != "analyze") {
    os << ",\"env\":{";
    bool first = true;
    for (const auto& [k, v] : j.env) {
      os << (first ? "" : ",") << "\"" << k << "\":" << v;
      first = false;
    }
    os << "}";
  }
  if (j.cap > 0) os << ",\"cap\":" << j.cap;
  if (symbolic) os << ",\"engine\":\"symbolic\"";
  os << "}";
  return os.str();
}

std::vector<Job> read_jobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::map<std::string, std::string> texts;
  std::vector<Job> jobs;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    std::istringstream is(line);
    Job j;
    is >> j.group >> j.verb >> j.path >> j.line >> j.cap;
    for (std::string kv; is >> kv;) {
      const auto eq = kv.find('=');
      j.env[kv.substr(0, eq)] = std::stoll(kv.substr(eq + 1));
    }
    auto it = texts.find(j.path);
    if (it == texts.end()) it = texts.emplace(j.path, read_file(j.path)).first;
    j.text = it->second;
    if (j.served()) j.wire = request_line(j);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

// ---------------------------------------------------------------------------
// Driver path.
// ---------------------------------------------------------------------------

/// What `sdlo <verb> ... --json` runs once it has read the program.
std::string drive_cli(const Job& j) {
  std::ostringstream out;
  if (j.verb == "advise") {
    const ir::ParsedProgram pp = ir::parse_program_located(j.text);
    analysis::AdvisorOptions opts;
    opts.capacity = j.cap;
    analysis::render_advice_json(
        analysis::advise(pp.prog, j.env, opts, &pp.locs), out);
    return out.str();
  }
  const ir::Program prog = ir::parse_program(j.text);
  if (j.verb == "misses") {
    analysis::MissesOptions opts;
    opts.capacity = j.cap;
    analysis::render_misses_json(analysis::run_misses(prog, j.env, opts),
                                 out);
  } else if (j.verb == "sweep") {
    analysis::SweepDriverOptions opts;
    opts.line_elems = j.line;
    analysis::render_sweep_json(analysis::run_sweep(prog, j.env, opts), out,
                                false);
  } else {
    throw std::runtime_error("no CLI driver for verb " + j.verb);
  }
  return out.str();
}

/// What the daemon runs for one request line: Service::handle_line, then
/// the envelope the transport writes. Returns the payload.
std::string drive_serve(const Job& j, serve::Service& svc,
                        std::uint64_t& envelope_bytes) {
  const serve::Response r = svc.handle_line(j.wire);
  if (r.status != serve::Status::kOk) {
    throw std::runtime_error("serve " + j.verb + " on " + j.path + ": " +
                             r.error);
  }
  envelope_bytes += serve::render_response(r).size();
  return r.payload;
}

// ---------------------------------------------------------------------------
// Layered path: the drivers' calls, one span each.
// ---------------------------------------------------------------------------

/// analysis::run_sweep, call by call.
analysis::SweepOutcome sweep_layers(const ir::Program& prog,
                                    const sym::Env& env, std::int64_t line,
                                    bool symbolic, Tracer& t, Counts& c,
                                    const std::string& g) {
  const trace::CompiledProgram cp = [&] {
    Span s(t, "trace.compile");
    return trace::CompiledProgram(prog, env);
  }();
  analysis::SweepOutcome oc;
  oc.line_elems = line;
  oc.capacities = analysis::sweep_ladder(line, cp.address_space_size());
  if (symbolic) {
    c[g + "symbolic_attempts"] += 1;
    if (line != 1) {
      oc.fell_back = true;
      oc.fallback_reason = "line granularity (" + std::to_string(line) +
                           " elements/line) is outside the element model";
    } else {
      const model::Analysis an = [&] {
        Span s(t, "model.analyze");
        return model::analyze(prog);
      }();
      const model::SymbolicSweep sw = [&] {
        Span s(t, "model.symbolic_sweep");
        return model::symbolic_sweep(an, env);
      }();
      oc.confidence = sw.confidence;
      if (sw.confidence == model::Confidence::kExact) {
        oc.engine = "symbolic";
        oc.completeness = sw.completeness;
        oc.accesses = static_cast<std::uint64_t>(sw.accounted_accesses);
        oc.crossings = sw.crossing_points();
        for (const std::int64_t cap : oc.capacities) {
          oc.rows.push_back(sw.result_at(cap));
        }
        return oc;
      }
      c[g + "symbolic_fallbacks"] += 1;
      oc.fell_back = true;
      oc.fallback_reason =
          "analytic histogram is not exact for this program (AP105: "
          "partitions exceed the enumeration limit with varying depth); "
          "answered by simulation";
    }
  }
  const cachesim::ProfileResult prof = [&] {
    Span s(t, "cachesim.profile");
    return cachesim::profile_stack_distances(cp, line);
  }();
  c[g + "accesses"] += prof.accesses;
  oc.engine = "simulated";
  oc.completeness = prof.completeness;
  oc.accesses = prof.accesses;
  for (const std::int64_t cap : oc.capacities) {
    oc.rows.push_back(prof.result(cap));
  }
  return oc;
}

/// analysis::run_misses without --simulate, call by call.
void misses_layers(const ir::Program& prog, const sym::Env& env,
                   std::int64_t cap, Tracer& t, Counts& c,
                   const std::string& g, std::ostream& out) {
  const model::Analysis an = [&] {
    Span s(t, "model.analyze");
    return model::analyze(prog);
  }();
  analysis::MissesOutcome oc;
  {
    Span s(t, "model.predict");
    oc.pred = model::predict_misses(an, env, cap);
  }
  c[g + "predictions"] += 1;
  c[g + "exact"] += oc.pred.confidence == model::Confidence::kExact ? 1 : 0;
  c[g + "predicted_misses"] += static_cast<std::uint64_t>(oc.pred.misses);
  Span s(t, "analysis.render");
  analysis::render_misses_json(oc, out);
}

void advise_layers(const std::string& text, const sym::Env& env,
                   const analysis::AdvisorOptions& opts, std::size_t top,
                   Tracer& t, Counts& c, const std::string& g,
                   std::ostream& out) {
  const ir::ParsedProgram pp = [&] {
    Span s(t, "ir.parse");
    return ir::parse_program_located(text);
  }();
  const analysis::AdvisorReport rep = [&] {
    Span s(t, "analysis.advise");
    return analysis::advise(pp.prog, env, opts, &pp.locs);
  }();
  c[g + "advise_scored"] += rep.candidates_scored;
  c[g + "advise_illegal"] += rep.rejected_illegal;
  Span s(t, "analysis.render");
  analysis::render_advice_json(rep, out, top);
}

ir::Program parse_layer(const std::string& text, Tracer& t) {
  Span s(t, "ir.parse");
  return ir::parse_program(text);
}

/// The CLI path of drive_cli, call by call.
std::string cli_layers(const Job& j, Tracer& t, Counts& c) {
  std::ostringstream out;
  const std::string g = j.group + ".";
  if (j.verb == "advise") {
    analysis::AdvisorOptions opts;
    opts.capacity = j.cap;
    advise_layers(j.text, j.env, opts, 0, t, c, g, out);
    return out.str();
  }
  const ir::Program prog = parse_layer(j.text, t);
  if (j.verb == "misses") {
    misses_layers(prog, j.env, j.cap, t, c, g, out);
    return out.str();
  }
  const analysis::SweepOutcome oc =
      sweep_layers(prog, j.env, j.line, false, t, c, g);
  Span s(t, "analysis.render");
  analysis::render_sweep_json(oc, out, false);
  return out.str();
}

/// The daemon path of drive_serve (Service::handle_line and dispatch),
/// call by call.
std::string serve_layers(const Job& j, Tracer& t, Counts& c) {
  const std::string g = j.group + ".";
  const serve::Request req = [&] {
    Span s(t, "serve.parse_request");
    return serve::parse_request(j.wire);
  }();
  std::ostringstream out;
  if (req.verb == serve::Verb::kLint) {
    analysis::LintOptions opts;
    opts.env = req.env;
    opts.capacity = req.cap >= 0 ? req.cap : 0;
    opts.line_elems = req.line;
    const analysis::LintReport rep = [&] {
      Span s(t, "analysis.lint");
      return analysis::lint_text(req.program, opts);
    }();
    Span s(t, "analysis.render");
    analysis::render_json(rep, out);
  } else if (req.verb == serve::Verb::kAdvise) {
    analysis::AdvisorOptions opts;
    opts.capacity = req.cap >= 0 ? req.cap : 8192;
    opts.line_elems = req.line;
    advise_layers(req.program, req.env, opts,
                  static_cast<std::size_t>(req.top), t, c, g, out);
  } else {
    // The memo-cache key: structural hash and canonical text.
    const ir::Program prog = parse_layer(req.program, t);
    {
      Span s(t, "ir.hash");
      c[g + "hash_xor"] ^= ir::structural_hash(prog);
    }
    {
      Span s(t, "ir.print");
      c[g + "key_bytes"] += ir::to_code_string(prog).size();
    }
    if (req.verb == serve::Verb::kAnalyze) {
      Span s(t, "analysis.analyze_json");
      analysis::render_analyze_json(prog, out);
    } else if (req.verb == serve::Verb::kMisses) {
      misses_layers(prog, req.env, req.cap >= 0 ? req.cap : 8192, t, c, g,
                    out);
    } else {
      const bool symbolic = analysis::parse_sweep_engine(req.engine) ==
                            analysis::SweepEngine::kSymbolic;
      const analysis::SweepOutcome oc = sweep_layers(
          prog, req.env, req.line > 0 ? req.line : 1, symbolic, t, c, g);
      Span s(t, "analysis.render");
      analysis::render_sweep_json(oc, out, req.sites);
    }
  }
  serve::Response r;
  r.id_token = req.id_token;
  r.payload = chomp(out.str());
  Span s(t, "serve.render_response");
  c[g + "envelope_bytes"] += serve::render_response(r).size();
  return r.payload;
}

/// Calls outside the request path that some per-layer rates need.
void probes(const Job& j, Tracer& t, Counts& c) {
  const std::string g = j.group + ".";
  if (j.verb == "advise") {
    const ir::ParsedProgram pp = ir::parse_program_located(j.text);
    Span s(t, "analysis.dependence", true);
    c[g + "dependences"] += analysis::analyze_dependences(pp.prog).deps.size();
    return;
  }
  if (j.verb != "sweep") return;
  const trace::CompiledProgram cp(ir::parse_program(j.text), j.env);
  {
    Span s(t, "trace.walk", true);
    std::uint64_t n = 0;
    cp.walk_runs([&](const trace::Run* group, std::size_t nrefs) {
      n += group[0].count * nrefs;
    });
    c[g + "walk_accesses"] += n;
  }
  if (j.line == 1) {
    // The in-run LruCache rate at one mid-ladder capacity: the base the
    // engine rates are compared against.
    const auto caps = analysis::sweep_ladder(1, cp.address_space_size());
    Span s(t, "cachesim.oracle", true);
    c[g + "oracle_accesses"] +=
        cachesim::simulate_lru(cp, caps[caps.size() / 2]).accesses;
  }
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

using Walls = std::map<std::string, double>;  // group -> seconds

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Five runs of every job, one after the other so that host speed drifting
/// over seconds affects them alike: driver, layered untraced, layered
/// traced, layered untraced, driver. Each traced figure is compared with
/// the mean of the two runs around it.
struct Runs {
  Walls drive;   ///< mean of the two driver runs
  Walls off;     ///< mean of the two untraced layered runs
  Walls traced;  ///< the traced layered run
  std::map<std::string, int> diverged;  ///< layered payload != driver's
  Counts counts;  ///< deterministic counts, equal in all layered runs
  Counts probe_counts;  ///< counts of the probes, which run once
};

Runs run_all(const std::vector<Job>& jobs, Tracer& on) {
  serve::ServiceOptions so;
  so.cache_entries = 0;
  serve::Service svc(so);
  std::uint64_t envelope_bytes = 0;
  Tracer off(false);
  Counts counts_off;
  Counts counts_on;
  Counts counts_off2;
  Counts probe_counts;
  Runs p;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const auto drive = [&](std::string& payload) {
      const auto t0 = Clock::now();
      payload = j.served() ? drive_serve(j, svc, envelope_bytes) : drive_cli(j);
      p.drive[j.group] += since(t0) / 2;
    };
    const auto layered = [&](Tracer& t, Counts& c, double& wall) {
      t.begin_request(static_cast<std::int64_t>(i) + 1);
      const auto t0 = Clock::now();
      std::string payload =
          j.served() ? serve_layers(j, t, c) : cli_layers(j, t, c);
      wall += since(t0);
      return payload;
    };
    std::string want;
    std::string again;
    double off_wall = 0;
    drive(want);
    layered(off, counts_off, off_wall);
    if (layered(on, counts_on, p.traced[j.group]) != want) {
      ++p.diverged[j.group];
    }
    layered(off, counts_off2, off_wall);
    drive(again);
    p.off[j.group] += off_wall / 2;
    // Probes run once, after the five runs, so that their memory traffic
    // precedes none of them.
    if (!j.served()) probes(j, on, probe_counts);
    if (again != want) {
      throw std::runtime_error("the two driver runs of job " +
                               std::to_string(i + 1) +
                               " rendered different payloads");
    }
  }
  if (counts_off != counts_on || counts_off2 != counts_on) {
    throw std::runtime_error(
        "deterministic counts differ between the untraced and the traced "
        "layered runs");
  }
  for (const auto& [k, v] : probe_counts) {
    // The counting walk sees the trace the profiler consumed.
    const std::string group = k.substr(0, k.find('.'));
    if (k == group + ".walk_accesses" && v != counts_on[group + ".accesses"]) {
      throw std::runtime_error("the trace walk and the profiler disagree on " +
                               group + " accesses");
    }
  }
  p.counts = std::move(counts_on);
  p.probe_counts = std::move(probe_counts);
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

void write_trace(const std::vector<Event>& events,
                 const std::vector<Job>& jobs, const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    const Job& j = jobs[static_cast<std::size_t>(e.req - 1)];
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << e.name
       << "\",\"cat\":\"" << j.group << "\",\"ph\":\"X\",\"ts\":"
       << e.start_us << ",\"dur\":" << e.dur_us
       << ",\"pid\":1,\"tid\":1,\"args\":{\"req\":" << e.req
       << ",\"verb\":\"" << j.verb << "\",\"probe\":"
       << (e.probe ? "true" : "false") << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string jobs_path;
    std::string trace_path;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string a = argv[i];
      if (a == "--jobs") jobs_path = argv[i + 1];
      if (a == "--trace-out") trace_path = argv[i + 1];
    }
    if (jobs_path.empty() || trace_path.empty()) {
      std::cerr << "usage: perfbench_layers --jobs FILE --trace-out FILE\n";
      return 2;
    }
    const std::vector<Job> jobs = read_jobs(jobs_path);

    Tracer on(true);
    Runs p = run_all(jobs, on);
    write_trace(on.events(), jobs, trace_path);

    // Per (group, layer) span durations, probes included.
    std::map<std::string, std::vector<double>> dur;  // "group/layer" -> us
    std::map<std::string, std::map<std::string, double>> self_us;
    for (const Event& e : on.events()) {
      const std::string& g = jobs[static_cast<std::size_t>(e.req - 1)].group;
      dur[g + "/" + e.name].push_back(e.dur_us);
      if (!e.probe) self_us[g][e.name] += e.dur_us;
    }
    std::map<std::string, double> driver_us;
    for (const auto& [g, w] : p.drive) {
      driver_us[g] = 1e6 * w;
      double layers = 0;
      for (const auto& [name, us] : self_us[g]) layers += us;
      const double untraced = p.off.at(g);
      std::cout << "accounting " << g << ": driver calls "
                << driver_us[g] / 1e3 << " ms, layer self times "
                << layers / 1e3 << " ms, unaccounted "
                << 100.0 * (1.0 - layers / driver_us[g])
                << "%; tracing overhead "
                << 100.0 * (p.traced.at(g) / untraced - 1.0) << "% (traced "
                << p.traced.at(g) << " s vs untraced " << untraced
                << " s); payload differs from the driver's on "
                << p.diverged[g] << " of "
                << std::count_if(jobs.begin(), jobs.end(),
                                 [&](const Job& j) { return j.group == g; })
                << " jobs\n";
      std::cout << "  self times " << g << ":";
      for (const auto& [name, us] : self_us[g]) {
        std::cout << " " << name << " " << us / 1e3 << " ms";
      }
      std::cout << "\n";
    }
    for (const auto& [k, v] : p.counts) {
      std::cout << "count " << k << " = " << v << " (repeated exactly)\n";
    }
    for (const auto& [k, v] : p.probe_counts) {
      std::cout << "count " << k << " = " << v << " (probe, run once)\n";
    }

    auto p50 = [&](const std::string& key) { return median(dur[key]); };
    auto sum = [&](const std::string& key) {
      double s = 0;
      for (const double d : dur[key]) s += d;
      return s;
    };
    auto count = [&](const std::string& key) {
      for (const Counts* c : {&p.counts, &p.probe_counts}) {
        const auto it = c->find(key);
        if (it != c->end()) return static_cast<double>(it->second);
      }
      return 0.0;
    };
    auto rate = [&](const std::string& acc, const std::string& span) {
      const double us = sum(span);
      return us > 0 ? count(acc) / us : 0.0;  // accesses/us = M accesses/s
    };
    std::vector<double> analyze_all = dur["predict/model.analyze"];
    for (const double d : dur["serve-mix/model.analyze"]) {
      analyze_all.push_back(d);
    }
    const double scored = count("predict.advise_scored");
    const double illegal = count("predict.advise_illegal");
    const double attempts = count("serve-mix.symbolic_attempts");
    std::map<std::string, double> m = {
        {"ir.parse_ms", p50("serve-mix/ir.parse") / 1e3},
        {"ir.hash_us", p50("serve-mix/ir.hash")},
        {"analysis.lint_ms", p50("serve-mix/analysis.lint") / 1e3},
        {"analysis.render_ms", p50("serve-mix/analysis.render") / 1e3},
        {"analysis.dependence_ms", p50("predict/analysis.dependence") / 1e3},
        {"analysis.advise_ms", p50("predict/analysis.advise") / 1e3},
        {"analysis.advise_scored", scored},
        {"analysis.advise_illegal_ratio",
         scored + illegal > 0 ? illegal / (scored + illegal) : 0.0},
        {"model.analyze_ms", median(analyze_all) / 1e3},
        {"model.predict_ms", p50("predict/model.predict") / 1e3},
        {"model.predict_share",
         driver_us["predict"] > 0
             ? sum("predict/model.predict") / driver_us["predict"]
             : 0.0},
        {"model.exact_ratio",
         count("predict.predictions") > 0
             ? count("predict.exact") / count("predict.predictions")
             : 0.0},
        {"model.symbolic_sweep_ms",
         p50("serve-mix/model.symbolic_sweep") / 1e3},
        {"model.symbolic_fallback_ratio",
         attempts > 0 ? count("serve-mix.symbolic_fallbacks") / attempts
                      : 0.0},
        {"trace.compile_ms", p50("curve/trace.compile") / 1e3},
        {"trace.accesses", count("curve.accesses")},
        {"trace.walk_maccesses_per_s",
         rate("curve.walk_accesses", "curve/trace.walk")},
        {"cachesim.profile_ms", p50("curve/cachesim.profile") / 1e3},
        {"cachesim.profile_maccesses_per_s",
         rate("curve.accesses", "curve/cachesim.profile")},
        {"cachesim.oracle_maccesses_per_s",
         rate("curve.oracle_accesses", "curve/cachesim.oracle")},
        {"serve.parse_request_us", p50("serve-mix/serve.parse_request")},
        {"serve.render_response_us", p50("serve-mix/serve.render_response")},
    };
    std::cout << "{";
    bool first = true;
    for (const auto& [k, v] : m) {
      std::cout << (first ? "" : ",") << "\"" << k << "\":" << v;
      first = false;
    }
    std::cout << "}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 1;
  }
}
