#include "exp/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "exp/journal.hpp"

namespace gfc::exp {

namespace {

[[noreturn]] void usage_and_exit(const char* prog, const char* bad) {
  std::fprintf(stderr, "unknown or incomplete argument: %s\n", bad);
  std::fprintf(stderr,
               "usage: %s [--quick] [--jobs N] [--seed N] [--scale F<=%g] "
               "[--json PATH] [--timing] [--no-progress] [--analyze[=fail]] "
               "[--cbd-free-routing] "
               "[--trace] [--trace-out DIR] [--trace-categories LIST] "
               "[--resume PATH]... [--journal PATH] "
               "[--trial-timeout SECS<=%g] "
               "[--retries N] [--shard I/N] [--wedge TRIAL]\n",
               prog, kMaxScale, kMaxTrialTimeoutS);
  std::exit(2);
}

/// Strict numeric parsing: the whole value must be consumed, no silent
/// atoi-style "abc -> 0". `flag` names the offender in the usage message.
long long parse_ll(const char* prog, const char* flag, const char* text,
                   long long min_value, long long max_value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min_value ||
      v > max_value) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n",
                 flag, min_value, max_value, text);
    usage_and_exit(prog, flag);
  }
  return v;
}

std::uint64_t parse_u64(const char* prog, const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || *text == '-') {
    std::fprintf(stderr, "%s: expected a non-negative integer, got '%s'\n",
                 flag, text);
    usage_and_exit(prog, flag);
  }
  return v;
}

double parse_positive_double(const char* prog, const char* flag,
                             const char* text, double max_value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v > 0) ||
      v > max_value) {
    std::fprintf(stderr,
                 "%s: expected a positive number no larger than %g, got "
                 "'%s'\n",
                 flag, max_value, text);
    usage_and_exit(prog, flag);
  }
  return v;
}

/// "--shard I/N": 0 <= I < N, N > 0.
void parse_shard(const char* prog, const char* text, CliOptions* opts) {
  const char* slash = std::strchr(text, '/');
  if (slash == nullptr || slash == text || slash[1] == '\0') {
    std::fprintf(stderr, "--shard: expected I/N (e.g. 0/4), got '%s'\n", text);
    usage_and_exit(prog, "--shard");
  }
  const std::string i_part(text, slash);
  const long long i = parse_ll(prog, "--shard", i_part.c_str(), 0, 1 << 20);
  const long long c = parse_ll(prog, "--shard", slash + 1, 1, 1 << 20);
  if (i >= c) {
    std::fprintf(stderr, "--shard: index %lld out of range for %lld shards\n",
                 i, c);
    usage_and_exit(prog, "--shard");
  }
  opts->shard_index = static_cast<int>(i);
  opts->shard_count = static_cast<int>(c);
}

/// Flag value for `--flag VALUE` or `--flag=VALUE`; advances *i for the
/// two-token form. Null when `a` is not this flag at all.
const char* flag_value(const char* prog, const char* flag, int argc,
                       char** argv, int* i) {
  const char* a = argv[*i];
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(a, flag, len) != 0) return nullptr;
  if (a[len] == '=') return a + len + 1;
  if (a[len] != '\0') return nullptr;  // prefix of a longer flag
  if (*i + 1 >= argc) usage_and_exit(prog, a);
  return argv[++*i];
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(a, "--quick")) {
      opts.quick = true;
    } else if (!std::strcmp(a, "--timing")) {
      opts.timing = true;
    } else if (!std::strcmp(a, "--no-progress")) {
      opts.progress = false;
    } else if ((v = flag_value(argv[0], "--jobs", argc, argv, &i))) {
      opts.jobs = static_cast<int>(parse_ll(argv[0], "--jobs", v, 0, 4096));
    } else if ((v = flag_value(argv[0], "--seed", argc, argv, &i))) {
      opts.seed = parse_u64(argv[0], "--seed", v);
    } else if ((v = flag_value(argv[0], "--scale", argc, argv, &i))) {
      opts.scale = parse_positive_double(argv[0], "--scale", v, kMaxScale);
    } else if ((v = flag_value(argv[0], "--json", argc, argv, &i))) {
      opts.json_path = v;
    } else if ((v = flag_value(argv[0], "--resume", argc, argv, &i))) {
      opts.resume_paths.emplace_back(v);
    } else if ((v = flag_value(argv[0], "--journal", argc, argv, &i))) {
      opts.journal_path = v;
    } else if ((v = flag_value(argv[0], "--trial-timeout", argc, argv, &i))) {
      opts.trial_timeout_s = parse_positive_double(argv[0], "--trial-timeout",
                                                   v, kMaxTrialTimeoutS);
    } else if ((v = flag_value(argv[0], "--retries", argc, argv, &i))) {
      opts.retries =
          static_cast<int>(parse_ll(argv[0], "--retries", v, 0, 1000));
    } else if ((v = flag_value(argv[0], "--shard", argc, argv, &i))) {
      parse_shard(argv[0], v, &opts);
    } else if ((v = flag_value(argv[0], "--wedge", argc, argv, &i))) {
      opts.wedge_trial = v;
    } else if (!std::strcmp(a, "--analyze")) {
      opts.preflight = analyze::PreflightMode::kWarn;
    } else if (!std::strcmp(a, "--analyze=fail")) {
      opts.preflight = analyze::PreflightMode::kFail;
    } else if (!std::strcmp(a, "--analyze=warn")) {
      opts.preflight = analyze::PreflightMode::kWarn;
    } else if (!std::strcmp(a, "--cbd-free-routing")) {
      opts.cbd_free_routing = true;
    } else if (!std::strcmp(a, "--trace")) {
      opts.trace = true;
    } else if ((v = flag_value(argv[0], "--trace-out", argc, argv, &i))) {
      opts.trace_out = v;
    } else if ((v = flag_value(argv[0], "--trace-categories", argc, argv,
                               &i))) {
      std::string err;
      opts.trace_categories = trace::parse_categories(v, &err);
      if (opts.trace_categories == 0) {
        std::fprintf(stderr, "%s\n", err.empty() ? "empty category list"
                                                 : err.c_str());
        usage_and_exit(argv[0], a);
      }
    } else {
      usage_and_exit(argv[0], a);
    }
  }
  if (opts.trace && !opts.trace_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.trace_out, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --trace-out directory %s: %s\n",
                   opts.trace_out.c_str(), ec.message().c_str());
      std::exit(2);
    }
  }
  return opts;
}

CampaignResult run_campaign_cli(const Campaign& campaign,
                                const CliOptions& opts) {
  try {
    return run_campaign(campaign, opts.pool());
  } catch (const JournalError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

int finish_cli(const CliOptions& opts, const CampaignResult& result) {
  int status = 0;
  for (const auto& t : result.trials) {
    if (t.failed) {
      std::fprintf(stderr, "trial %s failed: %s\n", t.name.c_str(),
                   t.error.c_str());
      status = 1;
    } else if (t.timed_out) {
      std::fprintf(stderr, "trial %s TIMED OUT: %s\n", t.name.c_str(),
                   t.error.c_str());
      if (status == 0) status = 3;
    }
  }
  if (opts.json_path.empty()) return status;
  if (!result.write_json(opts.json_path, opts.timing)) {
    std::fprintf(stderr, "failed to write %s\n", opts.json_path.c_str());
    return 1;
  }
  const std::size_t skipped = result.skipped();
  std::fprintf(stderr, "wrote %s (%zu trials, %zu failed, %zu timed out",
               opts.json_path.c_str(), result.trials.size(),
               result.failures(), result.timeouts());
  if (skipped > 0)
    std::fprintf(stderr, ", %zu skipped by --shard", skipped);
  std::fprintf(stderr, ")\n");
  return status;
}

}  // namespace gfc::exp
