// Differential fuzzing CLI (DESIGN.md §9).
//
// Modes:
//   licm_fuzz [--seed S] [--cases N] [--max-vars V] [--invariant NAME]
//             [--out DIR] [--json FILE] [--no-reduce]
//     Generates N cases from seeds S, S+1, ... and checks every invariant
//     (or those whose name contains NAME). Each failure is delta-debugged
//     to a minimal repro written to DIR as fuzz_repro_<seed>.txt plus the
//     matching .lp export. Exit code 1 when any invariant failed, else 2
//     when the --json file cannot be written.
//   licm_fuzz --repro FILE [--invariant NAME]
//     Replays a repro file instead of generating.
// The default seed honours the LICM_FUZZ_SEED environment variable, so a
// failing CI run is replayed locally with the seed it printed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/version.h"
#include "harness.h"
#include "solver/lp_format.h"
#include "testing/invariants.h"
#include "testing/reducer.h"
#include "testing/repro.h"

namespace {

using licm::testing::FuzzCase;
using licm::testing::InvariantReport;
using licm::testing::Verdict;

struct Args {
  uint64_t seed = licm::FuzzSeedFromEnv(1);
  int64_t cases = 1000;
  uint32_t max_vars = 12;
  std::string invariant;  // substring filter; empty = all
  std::string repro;      // replay mode when non-empty
  std::string out_dir = ".";
  std::string json;       // summary JSON path
  bool reduce = true;
  int max_repros = 5;     // cap on repro files written per run
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed S] [--cases N] [--max-vars V] [--invariant NAME]\n"
      "          [--out DIR] [--json FILE] [--no-reduce] [--repro FILE]\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--version") {
      std::printf("%s\n", licm::VersionString("licm_fuzz").c_str());
      std::exit(0);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return false;
      a->seed = std::strtoull(v, nullptr, 0);
    } else if (flag == "--cases") {
      const char* v = next();
      if (!v) return false;
      a->cases = std::strtoll(v, nullptr, 0);
    } else if (flag == "--max-vars") {
      const char* v = next();
      if (!v) return false;
      a->max_vars = static_cast<uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (flag == "--invariant") {
      const char* v = next();
      if (!v) return false;
      a->invariant = v;
    } else if (flag == "--repro") {
      const char* v = next();
      if (!v) return false;
      a->repro = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      a->out_dir = v;
    } else if (flag == "--json") {
      const char* v = next();
      if (!v) return false;
      a->json = v;
    } else if (flag == "--no-reduce") {
      a->reduce = false;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

struct Tally {
  int64_t pass = 0, skip = 0, fail = 0;
};

// Reduces a failing case, writes the repro + .lp pair, and returns the
// repro path ("" when writing failed).
std::string EmitRepro(const FuzzCase& c, const std::string& invariant,
                      const Args& args) {
  FuzzCase small = c;
  if (args.reduce) {
    licm::testing::ReduceResult r =
        licm::testing::ReduceForInvariant(c, invariant);
    std::printf(
        "  reduced: %zu -> %zu tuples, %zu -> %zu constraints, "
        "%u -> %u vars (%d rounds)\n",
        r.tuples_before, r.tuples_after, r.constraints_before,
        r.constraints_after, r.vars_before, r.vars_after, r.rounds);
    small = std::move(r.reduced);
  }
  const std::string base =
      args.out_dir + "/fuzz_repro_" + std::to_string(c.seed);
  licm::Status st = licm::testing::WriteReproFile(small, base + ".txt");
  if (!st.ok()) {
    std::fprintf(stderr, "  repro write failed: %s\n", st.ToString().c_str());
    return "";
  }
  auto lp = licm::testing::BuildCaseLp(small);
  if (lp.ok()) {
    (void)licm::solver::WriteLpFile(*lp, licm::solver::Sense::kMaximize,
                                    base + ".lp");
  }
  std::printf("  repro: %s (+ .lp)\n", (base + ".txt").c_str());
  return base + ".txt";
}

int RunReports(const FuzzCase& c, const Args& args,
               std::map<std::string, Tally>* tally, int* repros_written) {
  auto reports = licm::testing::CheckCase(c, args.invariant);
  if (!reports.ok()) {
    std::fprintf(stderr, "seed %llu: case not checkable: %s\n",
                 static_cast<unsigned long long>(c.seed),
                 reports.status().ToString().c_str());
    return 1;
  }
  int failures = 0;
  for (const InvariantReport& r : *reports) {
    Tally& t = (*tally)[r.name];
    switch (r.verdict) {
      case Verdict::kPass: ++t.pass; break;
      case Verdict::kSkip: ++t.skip; break;
      case Verdict::kFail: ++t.fail; break;
    }
    if (r.verdict != Verdict::kFail) continue;
    ++failures;
    std::printf("FAIL seed=%llu invariant=%s: %s\n",
                static_cast<unsigned long long>(c.seed), r.name.c_str(),
                r.detail.c_str());
    std::printf("  replay: LICM_FUZZ_SEED=%llu licm_fuzz --cases 1 "
                "--invariant %s\n",
                static_cast<unsigned long long>(c.seed), r.name.c_str());
    if (*repros_written < args.max_repros) {
      if (!EmitRepro(c, r.name, args).empty()) ++(*repros_written);
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  std::map<std::string, Tally> tally;
  int repros_written = 0;
  int64_t total_failures = 0;
  int64_t cases_run = 0;

  if (!args.repro.empty()) {
    auto c = licm::testing::ReadReproFile(args.repro);
    if (!c.ok()) {
      std::fprintf(stderr, "cannot load repro: %s\n",
                   c.status().ToString().c_str());
      return 2;
    }
    std::printf("replaying %s (seed %llu)\n", args.repro.c_str(),
                static_cast<unsigned long long>(c->seed));
    total_failures += RunReports(*c, args, &tally, &repros_written);
    cases_run = 1;
  } else {
    licm::testing::GeneratorOptions opt;
    opt.max_vars = args.max_vars;
    for (int64_t i = 0; i < args.cases; ++i) {
      const uint64_t seed = args.seed + static_cast<uint64_t>(i);
      FuzzCase c = licm::testing::GenerateCase(seed, opt);
      total_failures += RunReports(c, args, &tally, &repros_written);
      ++cases_run;
    }
  }

  std::printf("\n%lld case(s), base seed %llu%s\n",
              static_cast<long long>(cases_run),
              static_cast<unsigned long long>(args.seed),
              args.invariant.empty()
                  ? ""
                  : (" (filter '" + args.invariant + "')").c_str());
  std::printf("%-14s %8s %8s %8s\n", "invariant", "pass", "skip", "fail");
  for (const auto& [name, t] : tally) {
    std::printf("%-14s %8lld %8lld %8lld\n", name.c_str(),
                static_cast<long long>(t.pass), static_cast<long long>(t.skip),
                static_cast<long long>(t.fail));
  }

  bool json_failed = false;
  if (!args.json.empty()) {
    std::vector<licm::bench::JsonRecord> records;
    for (const auto& [name, t] : tally) {
      licm::bench::JsonRecord rec;
      rec.AddString("suite", "licm_fuzz")
          .AddInt("base_seed", static_cast<int64_t>(args.seed))
          .AddInt("cases", cases_run)
          .AddInt("max_vars", args.max_vars)
          .AddString("invariant", name)
          .AddInt("pass", t.pass)
          .AddInt("skip", t.skip)
          .AddInt("fail", t.fail);
      records.push_back(std::move(rec));
    }
    licm::Status st = licm::bench::WriteBenchJson(args.json, records);
    if (!st.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", st.ToString().c_str());
      json_failed = true;
    }
  }

  if (total_failures > 0) {
    std::printf("\n%lld invariant failure(s)\n",
                static_cast<long long>(total_failures));
    return 1;
  }
  std::printf("all invariants held\n");
  return json_failed ? 2 : 0;
}
