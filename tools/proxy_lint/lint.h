// proxy_lint: a first-party static analyzer for this repo's coroutine,
// encapsulation, lifetime, and wire-protocol hazards.
//
// The checker is token-level (a C++ lexer plus a lightweight scanner
// over statements and scopes — no libclang), tuned to this codebase's
// idioms: trailing-underscore members, sim::Co / sim::Future awaitables,
// the core::Acquire<I> acquisition path, the OwnedBytes/BytesView
// zero-copy arena discipline. It runs in two passes: pass 1 builds a
// repo-wide symbol index (function return types, member field types,
// class→file map — see index.h), pass 2
// evaluates the rules against it (see rules.h). Ten rules:
//
//   L1 suspension-hazard    a reference / iterator / pointer /
//                           structured binding into member state live
//                           across a co_await (the PR-4 KvReplica::Mirror
//                           bug shape, including range-for over a member
//                           with an await in the loop body)
//   L2 discarded-task       a statement-level call whose callee resolves
//                           (via the symbol index) to a sim::Co /
//                           sim::Future return type and whose result is
//                           neither co_awaited nor explicitly detached
//                           (a (void) cast counts as explicit)
//   L3 encapsulation-leak   rpc::RpcClient construction, raw frame
//                           encode/decode, or a direct Network Send
//                           outside src/rpc, src/sim, src/net, src/core —
//                           call sites that should go through
//                           core::Acquire<I> / ProxyBase
//   L4 unchecked-deadline   a direct RpcClient::Call built without
//                           CallOptions (no deadline / retry policy) in
//                           non-test code
//   L5 discarded-timer      a statement-level Scheduler Post / PostAt /
//                           PostAfter whose RAII sim::Timer result is
//                           dropped — the temporary cancels the event at
//                           the semicolon, so the callback never fires;
//                           binding, assignment, a (void) cast, or a
//                           chained .Detach() / .Cancel() count as
//                           handled
//   L6 borrowed-view-escape a BytesView / std::string_view / view-holding
//                           aggregate (computed transitively over the
//                           member index) stored into member state,
//                           inserted into a member container, captured
//                           by a detached task, or returned from a
//                           function whose return type owns no view —
//                           i.e. escaping its arrival OwnedBytes arena.
//                           Statements that also move the arena, or copy
//                           via ToBytes/ToString/Bytes{...}, are the
//                           sanctioned patterns and exempt
//   L7 wire-asymmetry       an Encode*/Wrap* body whose Decode*/Unwrap*
//                           partner reads a different op sequence —
//                           kind, order, count or field names (src/rpc
//                           and src/serde only; bodies that delegate
//                           whole-struct Serialize are covered
//                           transitively)
//   L8 unchecked-status     a statement-level call discarding a
//                           core::Status / Result, including the form
//                           the compiler cannot see: `co_await Fn();`
//                           where Fn returns Co<Status> / Co<Result<T>>
//                           (src/ only)
//   L9 idle-coroutine       a sim::Co function or lambda whose only
//                           co_await is its last statement,
//                           `co_return co_await callee(...)`, and whose
//                           other statements only set up locals: it
//                           relays its callee at the cost of a frame
//                           and a completion event, where returning the
//                           callee's awaitable costs neither
//   L11 conditional-await   a co_await in the condition or either arm of
//                           a `?:` expression, the shape GCC 12
//                           miscompiles (DESIGN.md §7 item 3); a
//                           conditional inside the awaited call's
//                           arguments is clean
//
// Suppressions: `// NOLINT(proxy-lint:L1)` on the finding's line, or
// `// NOLINTNEXTLINE(proxy-lint:L1)` on the line above (rule `*` matches
// every rule). Pre-existing findings are frozen by a checked-in baseline
// (tools/proxy_lint_baseline.json) of per-file, per-rule counts: a count
// may shrink freely, but any finding beyond it fails the run.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "proxy_lint/index.h"

namespace proxy_lint {

struct Finding {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;
  std::string rule;  // "L1".."L9", "L11"
  std::string message;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule;
  }
};

/// Per-file, per-rule allowance of pre-existing findings.
struct Baseline {
  std::map<std::pair<std::string, std::string>, int> allowed;

  /// Parses the JSON written by Render(). Returns false (with `error`
  /// set) on malformed input.
  static bool Parse(const std::string& json, Baseline& out,
                    std::string& error);

  /// Counts `findings` into a baseline document (sorted, stable bytes).
  static std::string Render(const std::vector<Finding>& findings);
};

/// Splits `findings` into the ones the baseline does not cover (the
/// failures) and, optionally, reports entries whose counts could shrink.
std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const Baseline& baseline,
                                   std::vector<std::string>* stale_notes);

/// Findings in `current` not present in `base`, matched by (file, rule,
/// message) and ignoring line numbers — the --diff-base subtraction.
/// Matching is multiset-aware: two identical discards stay two.
std::vector<Finding> SubtractFindings(const std::vector<Finding>& current,
                                      const std::vector<Finding>& base);

class Linter {
 public:
  /// Pass 1: folds one file into the cross-TU symbol index. Call for
  /// every file before Analyze — L2/L5/L6/L8 resolve callees and member
  /// types against it.
  void CollectDeclarations(const std::string& file,
                           const std::string& content);

  /// Pass 2: analyzes one file. `file` must be the repo-relative path
  /// (it selects which rules apply and is what findings/baselines carry).
  std::vector<Finding> Analyze(const std::string& file,
                               const std::string& content) const;

  [[nodiscard]] const SymbolIndex& index() const { return index_; }

 private:
  SymbolIndex index_;
};

/// Rule applicability by repo-relative path.
bool IsTestPath(const std::string& file);                 // tests/...
bool IsEncapsulationExemptPath(const std::string& file);  // L3 allowed

std::string RenderText(const std::vector<Finding>& findings);
std::string RenderJson(const std::vector<Finding>& findings);
std::string RenderSarif(const std::vector<Finding>& findings);

}  // namespace proxy_lint
