// proxy_lint CLI: walks the tree, applies the rule set, honours the
// checked-in baseline, and fails (exit 1) on any new finding.
//
//   proxy_lint                          lint src/ tests/ bench/ tools/ ...
//   proxy_lint src/services             lint a subtree (or single files)
//   proxy_lint --format=json            machine-readable findings
//   proxy_lint --format=sarif           SARIF 2.1.0 (GitHub code scanning)
//   proxy_lint --diff-base=origin/main  only findings new vs. a revision
//   proxy_lint --write-baseline         freeze current findings
//   proxy_lint --no-baseline            report everything, frozen or not
//
// Exit status: 0 clean (after baseline), 1 findings, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "proxy_lint/lint.h"

namespace fs = std::filesystem;

namespace {

struct Args {
  std::string root = ".";
  std::string format = "text";
  std::string baseline_path;  // default resolved against root
  std::string diff_base;      // git revision; "" = off
  bool use_baseline = true;
  bool write_baseline = false;
  std::vector<std::string> paths;  // relative to root (or absolute)
};

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: proxy_lint [options] [paths...]\n"
      "\n"
      "Token-level static analysis for coroutine, encapsulation, view-\n"
      "lifetime, and wire-protocol hazards (rules L1 suspension-hazard,\n"
      "L2 discarded-task, L3 encapsulation-leak, L4 unchecked-deadline,\n"
      "L5 discarded-timer, L6 borrowed-view-escape, L7 wire-asymmetry,\n"
      "L8 unchecked-status, L9 idle-coroutine, L11 conditional-await).\n"
      "\n"
      "  --root=DIR         repo root (default: cwd); findings and the\n"
      "                     baseline use paths relative to it\n"
      "  --format=text|json|sarif\n"
      "                     finding output format (default text); sarif\n"
      "                     emits SARIF 2.1.0 for GitHub code scanning\n"
      "  --baseline=FILE    baseline path (default\n"
      "                     <root>/tools/proxy_lint_baseline.json)\n"
      "  --no-baseline      ignore the baseline; report every finding\n"
      "  --write-baseline   write the baseline from current findings and\n"
      "                     exit 0\n"
      "  --diff-base=REV    also lint the tree as of git revision REV and\n"
      "                     report only findings not present there\n"
      "                     (matched by file+rule+message, line-agnostic)\n"
      "  paths              files or directories to lint, relative to\n"
      "                     root (default: src tests bench tools examples)\n"
      "\n"
      "Suppress a line with // NOLINT(proxy-lint:L1) or the line above\n"
      "with // NOLINTNEXTLINE(proxy-lint:L1).\n");
}

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      PrintUsage(stdout);
      std::exit(0);
    } else if (std::strncmp(a, "--root=", 7) == 0) {
      args.root = a + 7;
    } else if (std::strncmp(a, "--format=", 9) == 0) {
      args.format = a + 9;
      if (args.format != "text" && args.format != "json" &&
          args.format != "sarif") {
        std::fprintf(stderr, "unknown format: %s (want text|json|sarif)\n",
                     args.format.c_str());
        return false;
      }
    } else if (std::strncmp(a, "--baseline=", 11) == 0) {
      args.baseline_path = a + 11;
    } else if (std::strncmp(a, "--diff-base=", 12) == 0) {
      args.diff_base = a + 12;
      if (args.diff_base.empty() ||
          args.diff_base.find_first_of("'\\\n") != std::string::npos) {
        std::fprintf(stderr, "bad --diff-base revision\n");
        return false;
      }
    } else if (std::strcmp(a, "--no-baseline") == 0) {
      args.use_baseline = false;
    } else if (std::strcmp(a, "--write-baseline") == 0) {
      args.write_baseline = true;
    } else if (std::strncmp(a, "--", 2) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      PrintUsage(stderr);
      return false;
    } else {
      args.paths.emplace_back(a);
    }
  }
  if (args.paths.empty()) {
    args.paths = {"src", "tests", "bench", "tools", "examples"};
  }
  return true;
}

bool LintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

/// Repo-relative, '/'-separated.
std::string Relative(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  return (ec ? file : rel).generic_string();
}

bool ReadFile(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// `git show REV:path` relative to `root`. False when the file does not
/// exist at that revision (new files have no base findings to subtract).
bool GitShow(const std::string& root, const std::string& rev,
             const std::string& rel, std::string& out) {
  const std::string cmd = "git -C '" + root + "' show '" + rev + ":" + rel +
                          "' 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  out.clear();
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  return pclose(pipe) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) return 2;

  const fs::path root = fs::path(args.root);
  if (args.baseline_path.empty()) {
    args.baseline_path = (root / "tools/proxy_lint_baseline.json").string();
  }

  // Resolve the file set (sorted for deterministic output). Fixture
  // snippets under lint_fixtures/ are intentionally-bad code exercised by
  // the analyzer's own tests — never part of a tree run.
  std::vector<fs::path> files;
  for (const std::string& p : args.paths) {
    const fs::path base = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      files.push_back(base);
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      std::fprintf(stderr, "proxy_lint: no such path: %s\n",
                   base.string().c_str());
      return 2;
    }
    for (auto it = fs::recursive_directory_iterator(base, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file() || !LintableExtension(it->path())) continue;
      if (it->path().generic_string().find("lint_fixtures") !=
          std::string::npos) {
        continue;
      }
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  proxy_lint::Linter linter;
  std::vector<std::pair<std::string, std::string>> contents;  // (rel, text)
  contents.reserve(files.size());
  for (const fs::path& f : files) {
    std::string text;
    if (!ReadFile(f, text)) {
      std::fprintf(stderr, "proxy_lint: cannot read %s\n",
                   f.string().c_str());
      return 2;
    }
    const std::string rel = Relative(f, root);
    linter.CollectDeclarations(rel, text);
    contents.emplace_back(rel, std::move(text));
  }

  std::vector<proxy_lint::Finding> findings;
  for (const auto& [rel, text] : contents) {
    std::vector<proxy_lint::Finding> per = linter.Analyze(rel, text);
    findings.insert(findings.end(), per.begin(), per.end());
  }

  if (!args.diff_base.empty()) {
    // Lint the same file set as of the base revision (two full passes,
    // so cross-TU resolution sees the base tree, not a hybrid) and keep
    // only findings that are new relative to it.
    proxy_lint::Linter base_linter;
    std::vector<std::pair<std::string, std::string>> base_contents;
    for (const auto& [rel, text] : contents) {
      std::string base_text;
      if (GitShow(args.root, args.diff_base, rel, base_text)) {
        base_linter.CollectDeclarations(rel, base_text);
        base_contents.emplace_back(rel, std::move(base_text));
      }
    }
    std::vector<proxy_lint::Finding> base_findings;
    for (const auto& [rel, text] : base_contents) {
      std::vector<proxy_lint::Finding> per = base_linter.Analyze(rel, text);
      base_findings.insert(base_findings.end(), per.begin(), per.end());
    }
    findings = proxy_lint::SubtractFindings(findings, base_findings);
  }

  if (args.write_baseline) {
    std::ofstream out(args.baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "proxy_lint: cannot write %s\n",
                   args.baseline_path.c_str());
      return 2;
    }
    out << proxy_lint::Baseline::Render(findings);
    std::fprintf(stderr, "proxy_lint: baseline written to %s (%zu findings)\n",
                 args.baseline_path.c_str(), findings.size());
    return 0;
  }

  std::vector<std::string> stale;
  if (args.use_baseline) {
    std::string json;
    if (ReadFile(args.baseline_path, json)) {
      proxy_lint::Baseline baseline;
      std::string error;
      if (!proxy_lint::Baseline::Parse(json, baseline, error)) {
        std::fprintf(stderr, "proxy_lint: bad baseline %s: %s\n",
                     args.baseline_path.c_str(), error.c_str());
        return 2;
      }
      findings = proxy_lint::ApplyBaseline(findings, baseline, &stale);
    }
  }

  if (args.format == "json") {
    std::fputs(proxy_lint::RenderJson(findings).c_str(), stdout);
  } else if (args.format == "sarif") {
    std::fputs(proxy_lint::RenderSarif(findings).c_str(), stdout);
  } else {
    std::fputs(proxy_lint::RenderText(findings).c_str(), stdout);
    for (const std::string& note : stale) {
      std::fprintf(stdout, "note: stale baseline entry: %s\n", note.c_str());
    }
    if (!findings.empty()) {
      std::fprintf(stdout,
                   "proxy_lint: %zu finding(s); see DESIGN.md §13 for the "
                   "rule catalogue, NOLINT(proxy-lint:<rule>) to suppress\n",
                   findings.size());
    }
  }
  return findings.empty() ? 0 : 1;
}
