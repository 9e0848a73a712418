#include "proxy_lint/rules.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <sstream>

namespace proxy_lint {

// --- path policy -------------------------------------------------------

bool IsTestPath(const std::string& file) {
  return file.rfind("tests/", 0) == 0;
}

bool IsEncapsulationExemptPath(const std::string& file) {
  static const char* allowed[] = {"src/rpc/", "src/sim/", "src/net/",
                                  "src/core/"};
  for (const char* prefix : allowed) {
    if (file.rfind(prefix, 0) == 0) return true;
  }
  // L3 only polices production and example code; tests, benches and
  // tools legitimately poke transport internals (white-box suites,
  // wire fuzz, chaos drivers).
  if (file.rfind("src/", 0) != 0 && file.rfind("examples/", 0) != 0) {
    return true;
  }
  return false;
}

namespace {

bool IsWirePath(const std::string& file) {
  return file.rfind("src/rpc/", 0) == 0 || file.rfind("src/serde/", 0) == 0;
}

// --- shared analysis context -------------------------------------------

struct Analysis {
  const Tokens& t;
  const std::map<int, std::set<std::string>>& suppressed;
  const std::string& file;
  const SymbolIndex& index;
  const FileScan& scan;
  std::vector<Finding>* findings;

  void Report(int line, const char* rule, std::string message) const {
    if (const auto it = suppressed.find(line); it != suppressed.end()) {
      if (it->second.contains("*") || it->second.contains(rule)) return;
    }
    findings->push_back({file, line, rule, std::move(message)});
  }

  /// The innermost function body containing token `p` (null if none).
  const FuncSpan* InnermostSpan(std::size_t p) const {
    const FuncSpan* best = nullptr;
    for (const FuncSpan& f : scan.functions) {
      if (f.body_begin <= p && p < f.body_end &&
          (best == nullptr ||
           f.body_end - f.body_begin < best->body_end - best->body_begin)) {
        best = &f;
      }
    }
    return best;
  }

  /// The class whose method encloses token `p` (lambdas inherit the
  /// enclosing method's class); "" when unknown.
  std::string CurrentClass(std::size_t p) const {
    const FuncSpan* best = nullptr;
    for (const FuncSpan& f : scan.functions) {
      if (f.body_begin <= p && p < f.body_end && !f.cls.empty() &&
          (best == nullptr ||
           f.body_end - f.body_begin < best->body_end - best->body_begin)) {
        best = &f;
      }
    }
    return best == nullptr ? "" : best->cls;
  }

  /// The class a receiver expression of type `type` dispatches into:
  /// the first type word the index knows as a class (so smart-pointer
  /// wrappers melt away), else the last word.
  std::string ReceiverClass(const std::string& type) const {
    const std::vector<std::string> words = TypeWords(type);
    for (const std::string& w : words) {
      if (index.HasClass(w)) return w;
    }
    return words.empty() ? "" : words.back();
  }

  /// Return types the call at `callee_idx` (the callee's identifier
  /// token) can resolve to, via the cross-TU index: explicit `Q::name`
  /// qualification, member receivers typed through the member table,
  /// call-expression receivers typed through their own return type,
  /// then the enclosing class, then the by-name union. An empty set
  /// means "unknown"; a mixed set means "ambiguous" — rules only fire
  /// when every resolved type satisfies their predicate.
  std::set<std::string> ResolveCallee(std::size_t callee_idx) const {
    const std::string& name = t[callee_idx].text;
    if (callee_idx >= 2 && Is(t, callee_idx - 1, "::") &&
        IsIdent(t, callee_idx - 2)) {
      if (const auto* s = index.Lookup(t[callee_idx - 2].text, name)) {
        return *s;
      }
      // The qualifier is a namespace, not a class.
      if (const auto* s = index.LookupByName(name)) return *s;
      return {};
    }
    if (callee_idx >= 2 &&
        (Is(t, callee_idx - 1, ".") || Is(t, callee_idx - 1, "->"))) {
      std::size_t recv = callee_idx - 2;
      std::string recv_type;
      if (Is(t, recv, ")")) {
        // Receiver is a call (`scheduler().Post`): type it by the
        // callee's own return type when that resolves uniquely.
        int bd = 0;
        while (recv > 0) {
          if (t[recv].text == ")") ++bd;
          if (t[recv].text == "(" && --bd == 0) {
            --recv;
            break;
          }
          --recv;
        }
        if (IsIdent(t, recv)) {
          const std::set<std::string> rts = ResolveCallee(recv);
          if (rts.size() == 1) recv_type = *rts.begin();
        }
      } else if (Is(t, recv, "this")) {
        recv_type = CurrentClass(callee_idx);
      } else if (IsIdent(t, recv)) {
        if (IsMemberToken(t[recv])) {
          const std::string cls = CurrentClass(callee_idx);
          if (!cls.empty()) recv_type = index.MemberType(cls, t[recv].text);
          if (recv_type.empty()) {
            const std::set<std::string> types =
                index.MemberTypesByName(t[recv].text);
            if (types.size() == 1) recv_type = *types.begin();
          }
        }
      }
      if (!recv_type.empty()) {
        if (const auto* s = index.Lookup(ReceiverClass(recv_type), name)) {
          return *s;
        }
      }
      if (const auto* s = index.LookupByName(name)) return *s;
      return {};
    }
    const std::string cls = CurrentClass(callee_idx);
    if (!cls.empty()) {
      if (const auto* s = index.Lookup(cls, name)) return *s;
    }
    if (const auto* s = index.LookupByName(name)) return *s;
    return {};
  }
};

/// All resolved types non-empty and satisfying `pred`.
template <typename Pred>
bool AllTypes(const std::set<std::string>& types, Pred pred) {
  if (types.empty()) return false;
  for (const std::string& ty : types) {
    if (!pred(ty)) return false;
  }
  return true;
}

// --- L1: suspension hazards --------------------------------------------

// L1a: range-for over member state with a co_await in the loop body; the
// hidden iterator is dereferenced again after every resumption, so a
// concurrent frame reassigning the container leaves it dangling (the
// PR-4 KvReplica::Mirror use-after-free). Also covers classic for loops
// whose init takes an iterator/reference into member state.
void CheckLoops(const Analysis& a) {
  const Tokens& t = a.t;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!Is(t, i, "for") || !Is(t, i + 1, "(")) continue;
    const std::size_t close = SkipBalanced(t, i + 1) - 1;  // index of ')'
    if (close >= t.size()) continue;
    // Body extent: brace block or single statement.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (Is(t, body_begin, "{")) {
      body_end = SkipBalanced(t, body_begin);
    } else {
      body_end = StatementEnd(t, body_begin) + 1;
    }
    if (!ContainsCoAwait(t, body_begin, body_end)) continue;

    // Range-for: a `:` at paren depth 1 with no `;` before it.
    std::size_t colon = 0;
    int depth = 0;
    bool classic = false;
    for (std::size_t p = i + 1; p < close; ++p) {
      const std::string& s = t[p].text;
      if (s == "(" || s == "[") ++depth;
      else if (s == ")" || s == "]") --depth;
      else if (s == ";" && depth == 1) { classic = true; break; }
      else if (s == ":" && depth == 1) { colon = p; break; }
    }
    if (colon != 0 && !classic) {
      if (RangeHasMemberState(t, colon + 1, close)) {
        a.Report(t[i].line, "L1",
                 "range-for over member '" +
                     MemberTokenIn(t, colon + 1, close) +
                     "' with a co_await in the loop body; iterate a local "
                     "snapshot instead (a suspended frame can outlive the "
                     "container's storage)");
      }
      continue;
    }
    if (classic) {
      // Init clause: tokens up to the first top-level `;`.
      std::size_t init_end = i + 1;
      int d = 0;
      for (std::size_t p = i + 1; p < close; ++p) {
        const std::string& s = t[p].text;
        if (s == "(" || s == "[") ++d;
        else if (s == ")" || s == "]") --d;
        else if (s == ";" && d == 1) { init_end = p; break; }
      }
      bool hazard = false;
      for (std::size_t p = i + 2; p < init_end && !hazard; ++p) {
        if (!IsMemberToken(t[p])) continue;
        // member_.begin() / member_.find(...) in the init = iterator
        // into member state held across the body's awaits.
        if ((Is(t, p + 1, ".") || Is(t, p + 1, "->")) && IsIdent(t, p + 2) &&
            LooksLikeIteratorCall(t[p + 2].text) && Is(t, p + 3, "(")) {
          hazard = true;
        }
      }
      if (hazard) {
        a.Report(t[i].line, "L1",
                 "iterator into member '" +
                     MemberTokenIn(t, i + 2, init_end) +
                     "' held across a co_await in the loop body");
      }
    }
  }
}

// L1b: a named reference / pointer / iterator / structured binding bound
// to member state, used again after a co_await in the same scope.
void CheckHeldDeclarations(const Analysis& a) {
  const Tokens& t = a.t;
  int paren_depth = 0;
  bool stmt_start = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[") { ++paren_depth; stmt_start = false; continue; }
    if (s == ")" || s == "]") { --paren_depth; stmt_start = false; continue; }
    if (s == ";" || s == "{" || s == "}") {
      stmt_start = (paren_depth == 0);
      continue;
    }
    if (!stmt_start || paren_depth != 0) { stmt_start = false; continue; }
    stmt_start = false;

    // The statement under the cursor.
    const std::size_t end = StatementEnd(t, i);
    if (end >= t.size()) continue;

    // Find the declared name(s) and whether the decl captures member
    // state by reference/pointer/iterator.
    std::vector<std::string> names;
    std::size_t eq = 0;
    // Locate the top-level `=` (skipping template args is unnecessary:
    // decls with initializers in this codebase are `T x = ...`).
    int d = 0;
    for (std::size_t p = i; p < end; ++p) {
      const std::string& q = t[p].text;
      if (q == "(" || q == "[" || q == "{") ++d;
      else if (q == ")" || q == "]" || q == "}") --d;
      else if (q == "=" && d == 0) { eq = p; break; }
    }
    if (eq == 0 || eq + 1 >= end) continue;
    const bool rhs_member = RangeCapturesOwnMemberState(t, eq + 1, end);
    if (!rhs_member) continue;

    bool capturing = false;
    std::string shape;
    // `auto& [a, b] = member_...` (structured binding).
    if (eq >= 2 && Is(t, eq - 1, "]")) {
      std::size_t open = eq - 1;
      while (open > i && !Is(t, open, "[")) --open;
      if (open > i && Is(t, open - 1, "&")) {
        for (std::size_t p = open + 1; p < eq - 1; ++p) {
          if (IsIdent(t, p)) names.push_back(t[p].text);
        }
        capturing = true;
        shape = "structured binding";
      }
    } else if (IsIdent(t, eq - 1)) {
      const std::string name = t[eq - 1].text;
      if (eq >= 2 && (Is(t, eq - 2, "&") || Is(t, eq - 2, "*"))) {
        names.push_back(name);
        capturing = true;
        shape = Is(t, eq - 2, "&") ? "reference" : "pointer";
      } else {
        // Value decl: only iterator-yielding calls on member state
        // capture (e.g. `auto it = map_.find(k)`); plain copies are the
        // sanctioned fix, never a finding.
        for (std::size_t p = eq + 1; p + 3 < end; ++p) {
          if (!IsMemberToken(t[p])) continue;
          if ((Is(t, p + 1, ".") || Is(t, p + 1, "->")) &&
              IsIdent(t, p + 2) && LooksLikeIteratorCall(t[p + 2].text) &&
              Is(t, p + 3, "(")) {
            names.push_back(name);
            capturing = true;
            shape = "iterator";
            break;
          }
        }
      }
    }
    if (!capturing || names.empty()) continue;

    // Is the name used after a co_await's statement, inside the decl's
    // scope? (Uses within the awaiting statement itself are evaluated
    // before the suspension — safe in this runtime.)
    const std::size_t scope_end = EnclosingScopeEnd(t, end);
    std::size_t await = end;
    while (await < scope_end && t[await].text != "co_await") ++await;
    if (await >= scope_end) continue;
    const std::size_t after = StatementEnd(t, await) + 1;
    for (std::size_t p = after; p < scope_end; ++p) {
      if (t[p].kind != Tok::kIdent) continue;
      if (std::find(names.begin(), names.end(), t[p].text) != names.end()) {
        a.Report(t[eq - 1].line, "L1",
                 shape + " '" + names.front() +
                     "' into member state is used after a co_await (line " +
                     std::to_string(t[await].line) +
                     "); take a copy before suspending");
        break;
      }
    }
  }
}

// --- statement-level discard scanning (L2 / L5 / L8) -------------------

/// The identifier owning the statement's final `(...)` — also through
/// explicit template arguments, `Call<R>(...)` — or npos-like t.size().
/// `i` is the statement's first token, `end` its `;`.
std::size_t FinalCallCallee(const Tokens& t, std::size_t i, std::size_t end) {
  std::size_t open = end - 1;  // index of ')'
  int bd = 0;
  while (open > i) {
    if (t[open].text == ")") ++bd;
    if (t[open].text == "(" && --bd == 0) break;
    --open;
  }
  if (open <= i) return t.size();
  std::size_t callee = open - 1;
  int angle = 0;
  for (; callee > i; --callee) {
    const std::string& s = t[callee].text;
    if (s == ">") ++angle;
    else if (s == ">>") angle += 2;
    else if (s == "<") --angle;
    else if (s == "<<") angle -= 2;
    if (angle <= 0) break;
  }
  if (angle != 0) return t.size();
  if (Is(t, callee, "<")) --callee;
  if (!IsIdent(t, callee)) return t.size();
  return callee;
}

/// True when the name chain at `callee_idx` is preceded by a type token
/// — a declaration (`Timer Post(Callback);`), not a call.
bool LooksLikeDeclaration(const Tokens& t, std::size_t i,
                          std::size_t callee_idx) {
  const std::size_t chain = QualifiedChainStart(t, callee_idx);
  if (chain <= i) return false;
  const Token& prev = t[chain - 1];
  return prev.kind == Tok::kIdent || prev.text == ">" || prev.text == "&" ||
         prev.text == "*" || prev.text == ">>";
}

// L2: a bare statement `Foo(args);` whose callee resolves (through the
// symbol index) to a sim::Co / sim::Future return type — the lazy
// coroutine is destroyed unstarted (Co) or the completion silently
// dropped (Future). `(void)` / co_await / Spawn / Detach / assignment
// all count as handling the result.
void CheckDiscardedTasks(const Analysis& a) {
  const Tokens& t = a.t;
  int paren_depth = 0;
  bool stmt_start = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[") { ++paren_depth; stmt_start = false; continue; }
    if (s == ")" || s == "]") { --paren_depth; stmt_start = false; continue; }
    if (s == ";" || s == "{" || s == "}") {
      stmt_start = (paren_depth == 0);
      continue;
    }
    if (!stmt_start || paren_depth != 0) { stmt_start = false; continue; }
    stmt_start = false;

    // Candidate statements start with an (unqualified or qualified)
    // identifier or `this`; control keywords, types and casts bail.
    if (!(IsIdent(t, i) || Is(t, i, "this"))) continue;

    const std::size_t end = StatementEnd(t, i);
    if (end >= t.size() || end < 2) continue;
    if (!Is(t, end - 1, ")")) continue;

    // Disqualifiers at top level: assignment or co_await anywhere.
    int d = 0;
    bool disqualified = false;
    for (std::size_t p = i; p < end; ++p) {
      const std::string& q = t[p].text;
      if (q == "(" || q == "[" || q == "{") ++d;
      else if (q == ")" || q == "]" || q == "}") --d;
      else if ((q == "=" && d == 0) || q == "co_await" || q == "co_yield") {
        disqualified = true;
        break;
      }
    }
    if (disqualified) continue;

    const std::size_t callee_idx = FinalCallCallee(t, i, end);
    if (callee_idx >= t.size()) continue;
    if (LooksLikeDeclaration(t, i, callee_idx)) continue;
    const std::string& callee = t[callee_idx].text;
    if (!AllTypes(a.ResolveCallee(callee_idx), TypeIsAwaitable)) continue;
    a.Report(t[callee_idx].line, "L2",
             "result of '" + callee +
                 "' (returns sim::Co/sim::Future) is discarded: co_await "
                 "it, Spawn or Detach it, or cast to (void) to drop it "
                 "explicitly");
  }
}

// L5: a bare statement `sched.Post(...)` / `sched_->PostAfter(...)` —
// the returned RAII sim::Timer temporary is destroyed at the semicolon,
// cancelling the event it just armed, so the callback silently never
// runs. Binding the Timer to a name, assigning it to a member, chaining
// .Detach() / .Cancel() on the temporary, or a `(void)` cast (explicitly
// acknowledging the immediate cancel) all count as handling the result.
void CheckDiscardedTimers(const Analysis& a) {
  static const std::set<std::string> posters = {"Post", "PostAt",
                                                "PostAfter"};
  const Tokens& t = a.t;
  int paren_depth = 0;
  bool stmt_start = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[") { ++paren_depth; stmt_start = false; continue; }
    if (s == ")" || s == "]") { --paren_depth; stmt_start = false; continue; }
    if (s == ";" || s == "{" || s == "}") {
      stmt_start = (paren_depth == 0);
      continue;
    }
    if (!stmt_start || paren_depth != 0) { stmt_start = false; continue; }
    stmt_start = false;

    if (!(IsIdent(t, i) || Is(t, i, "this"))) continue;

    const std::size_t end = StatementEnd(t, i);
    if (end >= t.size() || end < 2) continue;
    if (!Is(t, end - 1, ")")) continue;

    // Assignment / binding / co_await handle the Timer; `(void)` starts
    // the statement with a paren, so the candidate filter above already
    // skipped it.
    int d = 0;
    bool disqualified = false;
    for (std::size_t p = i; p < end; ++p) {
      const std::string& q = t[p].text;
      if (q == "(" || q == "[" || q == "{") ++d;
      else if (q == ")" || q == "]" || q == "}") --d;
      else if ((q == "=" && d == 0) || q == "co_await" || q == "co_yield") {
        disqualified = true;
        break;
      }
    }
    if (disqualified) continue;

    // The callee owning the statement's final `(...)`. A chained
    // `.Detach()` / `.Cancel()` owns that call instead of Post*, so the
    // handled forms fall out of scope here naturally.
    const std::size_t callee_idx = FinalCallCallee(t, i, end);
    if (callee_idx >= t.size()) continue;
    const std::string& callee = t[callee_idx].text;
    if (!posters.contains(callee)) continue;

    // Post* is always invoked on a scheduler object in this tree;
    // requiring the member access (or qualification) keeps unrelated
    // free functions that happen to share the name out of scope, and
    // skips declarations (`Timer Post(Callback);`) for free.
    if (callee_idx < 1 ||
        !(Is(t, callee_idx - 1, ".") || Is(t, callee_idx - 1, "->") ||
          Is(t, callee_idx - 1, "::"))) {
      continue;
    }
    // Cross-TU confirmation: when the receiver resolves through the
    // index to a class whose Post* does NOT return a Timer, this is an
    // unrelated API that shares the name — stay silent. An unresolved
    // receiver keeps the original heuristic (member access + name).
    const std::set<std::string> types = a.ResolveCallee(callee_idx);
    if (!types.empty()) {
      bool any_timer = false;
      for (const std::string& ty : types) {
        const std::vector<std::string> words = TypeWords(ty);
        if (std::find(words.begin(), words.end(), "Timer") != words.end()) {
          any_timer = true;
        }
      }
      if (!any_timer) continue;
    }
    a.Report(t[callee_idx].line, "L5",
             "sim::Timer from '" + callee +
                 "' is discarded: the RAII temporary cancels the event at "
                 "the semicolon — bind it to a sim::Timer, or chain "
                 ".Detach() for fire-and-forget");
  }
}

// L8: a statement-level call discarding a Status / Result. Direct
// discards are compile errors in this tree ([[nodiscard]] classes +
// PROXY_WERROR), so the real blind spot this rule exists for is the
// awaited form — `co_await Fn();` where Fn returns Co<Status> /
// Co<Result<T>>: the compiler cannot see through await_resume, and the
// failure vanishes. The index makes both forms checkable.
void CheckUncheckedStatus(const Analysis& a) {
  const Tokens& t = a.t;
  int paren_depth = 0;
  bool stmt_start = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[") { ++paren_depth; stmt_start = false; continue; }
    if (s == ")" || s == "]") { --paren_depth; stmt_start = false; continue; }
    if (s == ";" || s == "{" || s == "}") {
      stmt_start = (paren_depth == 0);
      continue;
    }
    if (!stmt_start || paren_depth != 0) { stmt_start = false; continue; }
    stmt_start = false;

    bool awaited = false;
    std::size_t lead = i;
    if (Is(t, i, "co_await") &&
        (IsIdent(t, i + 1) || Is(t, i + 1, "this"))) {
      awaited = true;
      lead = i + 1;
    } else if (!(IsIdent(t, i) || Is(t, i, "this"))) {
      continue;
    }

    const std::size_t end = StatementEnd(t, i);
    if (end >= t.size() || end < 2) continue;
    if (!Is(t, end - 1, ")")) continue;

    // Handled forms: assignment / named binding (`=` at top level),
    // co_yield, and for the direct form any embedded co_await (that
    // statement is the awaited form's business or already handled).
    int d = 0;
    bool disqualified = false;
    for (std::size_t p = lead; p < end; ++p) {
      const std::string& q = t[p].text;
      if (q == "(" || q == "[" || q == "{") ++d;
      else if (q == ")" || q == "]" || q == "}") --d;
      else if ((q == "=" && d == 0) || q == "co_await" || q == "co_yield") {
        disqualified = true;
        break;
      }
    }
    if (disqualified) continue;

    const std::size_t callee_idx = FinalCallCallee(t, lead, end);
    if (callee_idx >= t.size()) continue;
    if (!awaited && LooksLikeDeclaration(t, i, callee_idx)) continue;
    const std::string& callee = t[callee_idx].text;
    const std::set<std::string> types = a.ResolveCallee(callee_idx);
    if (awaited) {
      if (!AllTypes(types, TypeIsAwaitedStatus)) continue;
      a.Report(t[callee_idx].line, "L8",
               "co_await'ed result of '" + callee +
                   "' (Co<Status/Result>) is discarded — the failure "
                   "vanishes; bind it or PROXY_RETURN_IF_ERROR it");
    } else {
      if (!AllTypes(types, TypeIsStatusLike)) continue;
      a.Report(t[callee_idx].line, "L8",
               "Status/Result from '" + callee +
                   "' is discarded; check it, return it, or cast to "
                   "(void) to acknowledge the drop explicitly");
    }
  }
}

// --- L9: idle coroutines -----------------------------------------------

/// Parses a local declaration `[const] TYPE [<args>] [&|&&|*|const]* NAME`
/// followed by `{`, `=`, `(` or `;`, starting at `i`. Returns the index
/// of NAME, or t.size() when the tokens are not one.
std::size_t DeclaredLocal(const Tokens& t, std::size_t i) {
  std::size_t p = i;
  if (Is(t, p, "const")) ++p;
  if (!IsIdent(t, p) && !Is(t, p, "auto")) return t.size();
  while (IsIdent(t, p) && Is(t, p + 1, "::")) p += 2;
  if (!IsIdent(t, p) && !Is(t, p, "auto")) return t.size();
  ++p;
  if (Is(t, p, "<")) p = SkipTemplateArgs(t, p);
  while (Is(t, p, "&") || Is(t, p, "&&") || Is(t, p, "*") ||
         Is(t, p, "const")) {
    ++p;
  }
  if (!IsIdent(t, p)) return t.size();
  if (Is(t, p + 1, "{") || Is(t, p + 1, "=") || Is(t, p + 1, "(") ||
      Is(t, p + 1, ";")) {
    return p;
  }
  return t.size();
}

/// True when the statement [i, end) only sets up a local: it declares
/// one, or assigns into one declared earlier (`record.kind = ...;`).
bool SetsUpLocal(const Tokens& t, std::size_t i, std::size_t end,
                 std::set<std::string>* locals) {
  if (const std::size_t name = DeclaredLocal(t, i); name < end) {
    locals->insert(t[name].text);
    return true;
  }
  if (!IsIdent(t, i) || !locals->contains(t[i].text)) return false;
  std::size_t p = i + 1;
  while (Is(t, p, ".") && IsIdent(t, p + 1)) p += 2;
  return Is(t, p, "=");
}

// L9 (forward shape): a sim::Co function or lambda whose one co_await is
// its last statement, `co_return co_await callee(...);`, and whose other
// statements only set up locals. The frame suspends only to relay the
// callee's result, so it costs a frame and a completion event that do
// nothing: return the callee's awaitable instead (DESIGN.md §18).
void CheckIdleCoroutines(const Analysis& a) {
  const Tokens& t = a.t;
  for (const FuncSpan& f : a.scan.functions) {
    if (!TypeIsCoroutine(f.ret)) continue;
    int awaits = 0;
    for (std::size_t p = f.body_begin; p < f.body_end; ++p) {
      if (Is(t, p, "co_await")) ++awaits;
    }
    if (awaits != 1) continue;
    std::set<std::string> locals;
    for (std::size_t p = f.body_begin; p < f.body_end;) {
      const std::size_t end = StatementEnd(t, p);
      if (end >= f.body_end) break;
      if (Is(t, p, "co_return") && Is(t, p + 1, "co_await")) {
        if (end + 1 == f.body_end && Is(t, end - 1, ")")) {
          a.Report(f.line, "L9",
                   "'" + (f.name.empty() ? std::string("lambda") : f.name) +
                       "' only relays `co_return co_await` of its callee: "
                       "return the callee's awaitable instead (its frame "
                       "and completion event do nothing)");
        }
        break;
      }
      if (!SetsUpLocal(t, p, end, &locals)) break;
      p = end + 1;
    }
  }
}

// --- L11: conditional await -------------------------------------------

/// True for a token that bounds an operand of a conditional operator at
/// its own nesting depth: a statement or list boundary, an operator of
/// lower precedence, or another conditional's `?` / `:`.
bool BoundsConditionalOperand(const std::string& s) {
  static const std::set<std::string> kBounds = {
      ";",  ",",  "{",  "}",  "?",  ":",  "=",      "+=",        "-=",
      "*=", "/=", "%=", "|=", "&=", "^=", "return", "co_return", "co_yield",
      "throw"};
  return kBounds.contains(s);
}

// L11 (`?:` shape): a co_await in the condition or either arm of a
// conditional operator. GCC 12 miscompiles the shape: the frame cleanup
// of the arm not taken destroys an awaited result that is then read
// again (DESIGN.md §7 item 3). A conditional nested inside the awaited
// call's arguments is clean: its own operands do not await. Lambda
// bodies in an operand are other functions and are skipped.
void CheckConditionalAwaits(const Analysis& a) {
  const Tokens& t = a.t;
  for (std::size_t q = 0; q < t.size(); ++q) {
    if (!Is(t, q, "?")) continue;
    // The condition: back to the operand boundary at this depth.
    std::size_t begin = q;
    for (int depth = 0; begin > 0; --begin) {
      const std::string& s = t[begin - 1].text;
      if (s == ")" || s == "]") {
        ++depth;
      } else if (s == "(" || s == "[") {
        if (depth-- == 0) break;
      } else if (depth == 0 && BoundsConditionalOperand(s)) {
        break;
      }
    }
    // The arms: on to this conditional's `:`, then to the boundary.
    std::size_t end = q + 1;
    int open_arms = 1;  // `?`s at this depth still waiting for their `:`
    for (int depth = 0; end < t.size(); ++end) {
      const std::string& s = t[end].text;
      if (s == "{") {
        end = SkipBalanced(t, end) - 1;
      } else if (s == "(" || s == "[") {
        ++depth;
      } else if (s == ")" || s == "]") {
        if (depth-- == 0) break;
      } else if (depth == 0 && s == "?") {
        ++open_arms;
      } else if (depth == 0 && s == ":" && open_arms > 0) {
        --open_arms;
      } else if (depth == 0 && BoundsConditionalOperand(s)) {
        break;
      }
    }
    for (std::size_t p = begin; p < end; ++p) {
      if (Is(t, p, "{")) {
        p = SkipBalanced(t, p) - 1;
      } else if (Is(t, p, "co_await")) {
        a.Report(t[p].line, "L11",
                 "co_await inside a conditional operator: GCC 12 "
                 "miscompiles the arm not taken; await into a named "
                 "local in an if/else instead");
        break;
      }
    }
  }
}

// --- L6: borrowed-view escape ------------------------------------------

/// Copy wrappers: a statement that funnels the view through an owning
/// copy is the sanctioned fix, never an escape.
bool HasCopyWrapper(const Tokens& t, std::size_t from, std::size_t to) {
  for (std::size_t p = from; p < to && p < t.size(); ++p) {
    const std::string& s = t[p].text;
    if ((s == "ToBytes" || s == "ToString" || s == "assign") &&
        Is(t, p + 1, "(")) {
      return true;
    }
    if ((s == "Bytes" || s == "string") &&
        (Is(t, p + 1, "(") || Is(t, p + 1, "{"))) {
      return true;
    }
  }
  return false;
}

/// Does a name from `views` appear in [from, to) at "effective depth 0"
/// — outside any call's argument list, where only value-transparent
/// frames (braces, subscripts, grouping parens, std::move/forward, and
/// constructors of indexed classes) are open? A view used as a plain
/// call argument (`Validate(view)`) does not escape through the
/// statement's own value; a view inside `Wrapped{view}` or
/// `std::move(view)` does.
std::string EscapingViewIn(const Analysis& a, std::size_t from,
                           std::size_t to,
                           const std::set<std::string>& views) {
  const Tokens& t = a.t;
  int opaque = 0;
  std::vector<bool> frames;  // true = opaque call frame
  for (std::size_t p = from; p < to && p < t.size(); ++p) {
    const std::string& s = t[p].text;
    if (s == "(") {
      bool transparent = true;
      if (p > from && IsIdent(t, p - 1)) {
        const std::string& callee = t[p - 1].text;
        transparent = callee == "move" || callee == "forward" ||
                      a.index.HasClass(callee);
      } else if (p > from && Is(t, p - 1, ">")) {
        // `Foo<T>(args)` — a call with explicit template arguments.
        transparent = false;
      }
      frames.push_back(!transparent);
      if (!transparent) ++opaque;
      continue;
    }
    if (s == ")") {
      if (!frames.empty()) {
        if (frames.back()) --opaque;
        frames.pop_back();
      }
      continue;
    }
    if (t[p].kind == Tok::kIdent && opaque == 0 && views.contains(s)) {
      // `view.size()`, `r.ReadU8(v)`, `in[pos]`: a member access or
      // subscript consumes the view in place — its value does not
      // travel out through this expression.
      if (Is(t, p + 1, ".") || Is(t, p + 1, "->") || Is(t, p + 1, "[")) {
        continue;
      }
      return s;
    }
  }
  return "";
}

bool AnyViewIn(const Tokens& t, std::size_t from, std::size_t to,
               const std::set<std::string>& views) {
  for (std::size_t p = from; p < to && p < t.size(); ++p) {
    if (t[p].kind == Tok::kIdent && views.contains(t[p].text)) return true;
  }
  return false;
}

// L6: a borrowed view (BytesView / std::string_view / any class the
// index proves transitively holds one) escaping the lifetime of its
// arrival arena: stored into member state, captured by a detached task,
// or returned from a function whose return type owns no view. The
// sanctioned zero-copy pattern — the view travelling together with its
// std::move'd OwnedBytes arena — is exempt, as are explicit copies.
void CheckBorrowedViewEscape(const Analysis& a) {
  const Tokens& t = a.t;

  // Declared names, classified by declared (or resolved) type.
  std::set<std::string> views, arenas, others;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || IsKeyword(t[i].text)) {
      if (!Is(t, i, "auto")) continue;
      // `auto name = Callee(...)`: classify via the initializer's first
      // resolved call.
      std::size_t p = i + 1;
      while (Is(t, p, "&") || Is(t, p, "&&") || Is(t, p, "*") ||
             Is(t, p, "const")) {
        ++p;
      }
      if (!IsIdent(t, p) || !Is(t, p + 1, "=")) continue;
      const std::string name = t[p].text;
      const std::size_t end = StatementEnd(t, p);
      bool is_view = false;
      for (std::size_t q = p + 2; q < end && q < t.size(); ++q) {
        if (IsIdent(t, q) && Is(t, q + 1, "(")) {
          const std::set<std::string> types = a.ResolveCallee(q);
          is_view = AllTypes(types, [&](const std::string& ty) {
            return a.index.TypeHoldsView(ty);
          });
          break;
        }
      }
      if (is_view) {
        views.insert(name);
      } else {
        others.insert(name);
      }
      continue;
    }
    // `TYPE [<args>] [&|*|const] name` ending a declarator.
    std::size_t p = i + 1;
    if (Is(t, p, "<")) {
      p = SkipTemplateArgs(t, p);
      if (p >= t.size()) continue;
    }
    const std::size_t type_end = p;
    while (Is(t, p, "&") || Is(t, p, "&&") || Is(t, p, "*") ||
           Is(t, p, "const")) {
      ++p;
    }
    if (!IsIdent(t, p) || Is(t, p + 1, "(") || Is(t, p + 1, "::")) continue;
    if (!(Is(t, p + 1, ";") || Is(t, p + 1, "=") || Is(t, p + 1, ",") ||
          Is(t, p + 1, ")") || Is(t, p + 1, "{") || Is(t, p + 1, ":"))) {
      continue;
    }
    const std::string ty = NormalizeType(t, i, type_end);
    const std::vector<std::string> words = TypeWords(ty);
    if (a.index.TypeHoldsView(ty)) {
      views.insert(t[p].text);
    } else if (std::find(words.begin(), words.end(), "OwnedBytes") !=
               words.end()) {
      arenas.insert(t[p].text);
    } else {
      others.insert(t[p].text);
    }
  }
  // A name also declared with a non-view type elsewhere in the file is
  // ambiguous — drop it rather than guess.
  for (const std::string& name : others) views.erase(name);
  if (views.empty()) return;

  static const std::set<std::string> inserters = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "insert"};

  int paren_depth = 0;
  bool stmt_start = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    // A `(`-led statement — `(void)sim::Spawn(...)` — is still a
    // candidate: capture start-of-statement before the depth tracking
    // swallows the paren.
    const bool was_start = stmt_start && paren_depth == 0;
    if (s == "(" || s == "[") {
      ++paren_depth;
      stmt_start = false;
      if (!(s == "(" && was_start)) continue;
    } else if (s == ")" || s == "]") {
      --paren_depth;
      stmt_start = false;
      continue;
    } else if (s == ";" || s == "{" || s == "}") {
      stmt_start = (paren_depth == 0);
      continue;
    } else {
      if (!was_start) { stmt_start = false; continue; }
      stmt_start = false;
      if (!(IsIdent(t, i) || Is(t, i, "this") || Is(t, i, "return") ||
            Is(t, i, "co_return"))) {
        continue;
      }
    }
    const std::size_t end = StatementEnd(t, i);
    if (end >= t.size()) continue;
    if (!AnyViewIn(t, i, end, views)) continue;
    // The sanctioned pattern: the arena travels with the view (into the
    // queue entry, the coroutine frame, the spawned task).
    if (AnyViewIn(t, i, end, arenas)) continue;
    if (HasCopyWrapper(t, i, end)) continue;

    const std::string cls = a.CurrentClass(i);
    auto member_escapes = [&](const std::string& member) {
      // Member-type gating: storing into a member the index knows to be
      // scalar/owning (offsets, sizes, Bytes copies) is not an escape.
      std::string ty = cls.empty() ? "" : a.index.MemberType(cls, member);
      if (ty.empty()) {
        const std::set<std::string> types = a.index.MemberTypesByName(member);
        if (types.size() == 1) ty = *types.begin();
      }
      return ty.empty() || a.index.TypeHoldsView(ty);
    };

    // (a) member-store: top-level `member_ = ...view...`.
    std::size_t eq = 0;
    int d = 0;
    for (std::size_t p = i; p < end; ++p) {
      const std::string& q = t[p].text;
      if (q == "(" || q == "[" || q == "{") ++d;
      else if (q == ")" || q == "]" || q == "}") --d;
      else if (q == "=" && d == 0) { eq = p; break; }
    }
    if (eq > i && IsMemberToken(t[eq - 1]) &&
        !EscapingViewIn(a, eq + 1, end, views).empty()) {
      const std::string member = t[eq - 1].text;
      const std::string view = EscapingViewIn(a, eq + 1, end, views);
      if (member_escapes(member)) {
        a.Report(t[i].line, "L6",
                 "borrowed view '" + view + "' stored into member '" +
                     member +
                     "' outlives its arrival arena; copy it (ToBytes/"
                     "ToString) or move the OwnedBytes arena along with it");
        continue;
      }
    }

    // (b) member-container store: `member_.push_back(...view...)`.
    if (IsMemberToken(t[i])) {
      std::size_t j = i;
      while (true) {
        if (Is(t, j + 1, "[")) { j = SkipBalanced(t, j + 1) - 1; continue; }
        if (Is(t, j + 1, ".") || Is(t, j + 1, "->")) { j += 2; continue; }
        break;
      }
      if (IsIdent(t, j) && inserters.contains(t[j].text) &&
          Is(t, j + 1, "(")) {
        const std::size_t close = SkipBalanced(t, j + 1);
        const std::string view = EscapingViewIn(a, j + 2, close - 1, views);
        if (!view.empty() && member_escapes(t[i].text)) {
          a.Report(t[i].line, "L6",
                   "borrowed view '" + view + "' inserted into member '" +
                       t[i].text +
                       "' outlives its arrival arena; copy it or move the "
                       "OwnedBytes arena into the stored entry");
          continue;
        }
      }
    }

    // (c) detached capture: the view rides into a Spawn'd or
    // sim::Detach'd coroutine frame, or a .Detach()'d timer callback,
    // with no arena aboard.
    bool detached = false;
    int bdepth = 0;
    for (std::size_t p = i; p < end; ++p) {
      if (t[p].text == "{") ++bdepth;
      else if (t[p].text == "}") --bdepth;
      else if (bdepth == 0 && t[p].kind == Tok::kIdent &&
               (t[p].text == "Spawn" || t[p].text == "Detach") &&
               Is(t, p + 1, "(")) {
        detached = true;
        break;
      }
    }
    if (detached) {
      std::string view;
      for (std::size_t p = i; p < end; ++p) {
        if (t[p].kind == Tok::kIdent && views.contains(t[p].text)) {
          view = t[p].text;
          break;
        }
      }
      a.Report(t[i].line, "L6",
               "borrowed view '" + view +
                   "' captured by a detached task can outlive its arrival "
                   "arena; std::move the OwnedBytes arena into the task or "
                   "copy the bytes first");
      continue;
    }

    // (d) return-escape: the view (or an aggregate wrapping it) is
    // returned from a function whose return type holds no view — the
    // caller receives a pointer into an arena that dies with this frame.
    if (Is(t, i, "return") || Is(t, i, "co_return")) {
      const FuncSpan* span = a.InnermostSpan(i);
      if (span == nullptr || span->ret.empty()) continue;
      if (a.index.TypeHoldsView(span->ret)) continue;
      const std::string view = EscapingViewIn(a, i + 1, end, views);
      if (!view.empty()) {
        a.Report(t[i].line, "L6",
                 "borrowed view '" + view + "' escapes by return from '" +
                     (span->name.empty() ? std::string("lambda")
                                         : span->name) +
                     "' (returns " + span->ret +
                     ", which owns no view); return an owning copy or a "
                     "view-holding type");
      }
    }
  }
}

// --- L7: wire-protocol symmetry ----------------------------------------

struct WireOp {
  std::string kind;
  std::string field;  // dotted member tail ("deadline"), "" if unnamed
  int line;
};

const std::map<std::string, std::string>& OpKinds() {
  static const std::map<std::string, std::string> kinds = {
      {"WriteU8", "u8"},         {"ReadU8", "u8"},
      {"WriteU16", "u16"},       {"ReadU16", "u16"},
      {"WriteU32", "u32"},       {"ReadU32", "u32"},
      {"WriteU64", "u64"},       {"ReadU64", "u64"},
      {"WriteVarint", "varint"}, {"ReadVarint", "varint"},
      {"WriteSigned", "svarint"},{"ReadSigned", "svarint"},
      {"WriteBool", "bool"},     {"ReadBool", "bool"},
      {"WriteDouble", "double"}, {"ReadDouble", "double"},
      {"WriteBytes", "bytes"},   {"ReadBytes", "bytes"},
      {"ReadBytesView", "bytes"},
      {"WriteString", "string"}, {"ReadString", "string"},
      {"WriteRaw", "raw"},       {"ReadRaw", "raw"},
  };
  return kinds;
}

/// The dotted member tail of an argument range: `frame.deadline` ->
/// "deadline" (the token after the last `.`); "" when undotted.
std::string DottedField(const Tokens& t, std::size_t from, std::size_t to) {
  std::string field;
  for (std::size_t p = from; p + 1 < to && p + 1 < t.size(); ++p) {
    if (Is(t, p, ".") && IsIdent(t, p + 1)) field = t[p + 1].text;
  }
  return field;
}

/// Splits the call's `(...)` at `open` into top-level argument ranges.
std::vector<std::pair<std::size_t, std::size_t>> SplitArgs(
    const Tokens& t, std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  const std::size_t close = SkipBalanced(t, open) - 1;
  if (close >= t.size()) return args;
  std::size_t start = open + 1;
  int d = 0;
  for (std::size_t p = open + 1; p < close; ++p) {
    const std::string& s = t[p].text;
    if (s == "(" || s == "[" || s == "{" || s == "<") ++d;
    else if (s == ")" || s == "]" || s == "}" || s == ">") --d;
    else if (s == "," && d == 0) {
      args.emplace_back(start, p);
      start = p + 1;
    }
  }
  if (start < close) args.emplace_back(start, close);
  return args;
}

/// Extracts the wire-op sequence of one Encode*/Decode* body. Sets
/// `*delegating` when the body serializes a whole struct in one
/// Serialize/Deserialize call (those pairs are covered transitively via
/// the functions they delegate to).
std::vector<WireOp> ExtractWireOps(const Analysis& a, const FuncSpan& f,
                                   bool* delegating) {
  const Tokens& t = a.t;
  std::vector<WireOp> ops;
  *delegating = false;
  for (std::size_t p = f.body_begin; p < f.body_end && p < t.size(); ++p) {
    if (t[p].kind != Tok::kIdent || !Is(t, p + 1, "(")) continue;
    const std::string& name = t[p].text;

    if (name == "Serialize" || name == "Deserialize") {
      const auto args = SplitArgs(t, p + 1);
      if (args.size() < 2) continue;
      const auto [from, to] = args[1];
      if (to - from == 1 && IsIdent(t, from)) {
        *delegating = true;  // whole-struct delegation
        continue;
      }
      ops.push_back({"field", DottedField(t, from, to), t[p].line});
      continue;
    }
    const auto kind = OpKinds().find(name);
    if (kind == OpKinds().end()) continue;
    // Writer/Reader methods are always invoked through a receiver.
    if (p < 1 || !(Is(t, p - 1, ".") || Is(t, p - 1, "->"))) continue;
    const auto args = SplitArgs(t, p + 1);
    std::string field;
    if (!args.empty()) {
      field = DottedField(t, args.back().first, args.back().second);
    }
    ops.push_back({kind->second, field, t[p].line});
  }
  return ops;
}

struct WireFn {
  const FuncSpan* fn;
  std::vector<WireOp> ops;
};

// L7: every Encode*/Wrap* body must read back symmetrically in its
// Decode*/Unwrap* partner — same op kinds, same order, same count, and
// same field names where both sides name one. Catches protocol drift
// statically instead of via hand-written round-trip tests.
void CheckWireSymmetry(const Analysis& a) {
  std::map<std::string, std::vector<WireFn>> encoders, decoders;
  for (const FuncSpan& f : a.scan.functions) {
    if (f.name.empty()) continue;
    bool is_encoder;
    std::string base;
    if (f.name.rfind("Encode", 0) == 0) {
      is_encoder = true;
      base = f.name.substr(6);
    } else if (f.name.rfind("Decode", 0) == 0) {
      is_encoder = false;
      base = f.name.substr(6);
    } else if (f.name.rfind("Wrap", 0) == 0) {
      is_encoder = true;
      base = f.name.substr(4);
    } else if (f.name.rfind("Unwrap", 0) == 0) {
      is_encoder = false;
      base = f.name.substr(6);
    } else {
      continue;
    }
    // DecodeRequestView pairs with EncodeRequest.
    constexpr std::string_view kViewSuffix = "View";
    if (base.size() > kViewSuffix.size() && base.ends_with(kViewSuffix)) {
      base.resize(base.size() - kViewSuffix.size());
    }
    if (base.empty()) continue;
    bool delegating = false;
    std::vector<WireOp> ops = ExtractWireOps(a, f, &delegating);
    if (delegating || ops.empty()) continue;  // covered transitively
    (is_encoder ? encoders : decoders)[base].push_back({&f, std::move(ops)});
  }

  for (const auto& [base, encs] : encoders) {
    const auto dit = decoders.find(base);
    if (dit == decoders.end()) continue;
    // Compare only unambiguous 1:1 pairs; overload sets with several
    // explicit bodies per side have no positional pairing to check.
    if (encs.size() != 1 || dit->second.size() != 1) continue;
    const WireFn& e = encs.front();
    const WireFn& d = dit->second.front();
    const std::vector<WireOp>& eo = e.ops;
    const std::vector<WireOp>& dops = d.ops;
    const std::size_t n = std::min(eo.size(), dops.size());
    bool reported = false;
    for (std::size_t k = 0; k < n && !reported; ++k) {
      if (eo[k].kind != dops[k].kind) {
        a.Report(dops[k].line, "L7",
                 "wire symmetry broken for '" + base + "': op #" +
                     std::to_string(k + 1) + " — '" + e.fn->name +
                     "' writes " + eo[k].kind +
                     (eo[k].field.empty() ? "" : " ('" + eo[k].field + "')") +
                     " (line " + std::to_string(eo[k].line) + ") but '" +
                     d.fn->name + "' reads " + dops[k].kind +
                     (dops[k].field.empty() ? ""
                                            : " ('" + dops[k].field + "')"));
        reported = true;
      } else if (!eo[k].field.empty() && !dops[k].field.empty() &&
                 eo[k].field != dops[k].field) {
        a.Report(dops[k].line, "L7",
                 "wire symmetry broken for '" + base + "': op #" +
                     std::to_string(k + 1) + " — '" + e.fn->name +
                     "' writes field '" + eo[k].field + "' (line " +
                     std::to_string(eo[k].line) + ") but '" + d.fn->name +
                     "' reads field '" + dops[k].field + "'");
        reported = true;
      }
    }
    if (!reported && eo.size() != dops.size()) {
      const int line = dops.size() > eo.size() ? dops[eo.size()].line
                                               : dops.back().line;
      a.Report(line, "L7",
               "wire symmetry broken for '" + base + "': '" + e.fn->name +
                   "' writes " + std::to_string(eo.size()) + " ops but '" +
                   d.fn->name + "' reads " + std::to_string(dops.size()));
    }
  }
}

// --- L3: encapsulation -------------------------------------------------

// L3: distribution-protocol internals touched outside the transport and
// proxy layers.
void CheckEncapsulation(const Analysis& a) {
  const Tokens& t = a.t;
  static const std::set<std::string> frame_fns = {
      "EncodeRequest", "DecodeRequestView", "EncodeReply", "DecodeReply"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& s = t[i].text;

    if (s == "RpcClient") {
      // Construction: `new rpc::RpcClient`, `make_unique<rpc::RpcClient>`,
      // or an object declaration `rpc::RpcClient name(...)/{...}`.
      const std::size_t chain = QualifiedChainStart(t, i);
      const bool after_new = chain >= 1 && Is(t, chain - 1, "new");
      bool in_maker = false;
      for (std::size_t back = chain; back >= 2 && back >= chain - 6; --back) {
        if (Is(t, back - 1, "<") && IsIdent(t, back - 2) &&
            (t[back - 2].text == "make_unique" ||
             t[back - 2].text == "make_shared")) {
          in_maker = true;
        }
        if (back == 2) break;
      }
      const bool object_decl = IsIdent(t, i + 1) &&
                               (Is(t, i + 2, "(") || Is(t, i + 2, "{"));
      if (after_new || in_maker || object_decl) {
        a.Report(t[i].line, "L3",
                 "rpc::RpcClient constructed outside the transport/proxy "
                 "layers; go through core::Acquire<I> (the Context owns "
                 "the one client)");
      }
      continue;
    }

    if (frame_fns.contains(s) && Is(t, i + 1, "(")) {
      a.Report(t[i].line, "L3",
               "raw frame " + s +
                   " outside src/rpc; the wire format is the proxy "
                   "layer's private protocol");
      continue;
    }

    if (s == "Send" && Is(t, i + 1, "(")) {
      // `network...Send(` or `Network::Send` — direct datagram injection.
      if (i >= 2 && Is(t, i - 1, "::") && Is(t, i - 2, "Network")) {
        a.Report(t[i].line, "L3", "direct Network::Send bypasses the proxy "
                                  "invocation path");
        continue;
      }
      if (i >= 2 && (Is(t, i - 1, ".") || Is(t, i - 1, "->"))) {
        std::size_t recv = i - 2;
        if (Is(t, recv, ")")) {
          // receiver is a call: network().Send — find the callee name.
          int bd = 0;
          while (recv > 0) {
            if (t[recv].text == ")") ++bd;
            if (t[recv].text == "(" && --bd == 0) { --recv; break; }
            --recv;
          }
        }
        if (recv < t.size() && t[recv].kind == Tok::kIdent) {
          std::string lower = t[recv].text;
          std::transform(lower.begin(), lower.end(), lower.begin(),
                         [](unsigned char ch) { return std::tolower(ch); });
          if (lower.find("network") != std::string::npos) {
            a.Report(t[i].line, "L3",
                     "direct Network send ('" + t[recv].text +
                         ".Send') bypasses the proxy invocation path");
          }
        }
      }
    }
  }
}

// L4: a direct RpcClient::Call with the 4-argument form — no CallOptions,
// so no deadline and the default retry policy. Non-test code must state
// its call policy (even if that policy is "defaults", via an explicit
// options value at the acquisition or call site).
void CheckUncheckedDeadline(const Analysis& a) {
  const Tokens& t = a.t;
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (!Is(t, i, "Call") || !Is(t, i + 1, "(")) continue;
    if (!(Is(t, i - 1, ".") || Is(t, i - 1, "->"))) continue;
    // Receiver must be client-ish: `client`, `client_`, `client()`, or
    // `rpc` locals bound to a client.
    std::size_t recv = i - 2;
    if (Is(t, recv, ")")) {
      int bd = 0;
      while (recv > 0) {
        if (t[recv].text == ")") ++bd;
        if (t[recv].text == "(" && --bd == 0) { --recv; break; }
        --recv;
      }
    }
    if (recv >= t.size() || t[recv].kind != Tok::kIdent) continue;
    std::string lower = t[recv].text;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (lower.find("client") == std::string::npos) continue;

    // Count top-level commas in the argument list.
    const std::size_t past = SkipBalanced(t, i + 1);
    int commas = 0;
    int d = 0;
    for (std::size_t p = i + 1; p + 1 < past; ++p) {
      const std::string& q = t[p].text;
      if (q == "(" || q == "[" || q == "{" || q == "<") ++d;
      else if (q == ")" || q == "]" || q == "}" || q == ">") --d;
      else if (q == "," && d == 1) ++commas;
    }
    if (commas == 3) {  // (to, object, method, args) — no options
      a.Report(t[i].line, "L4",
               "RpcClient::Call without CallOptions: state a deadline/"
               "retry policy (or pass the ambient options) explicitly");
    }
  }
}

}  // namespace

std::vector<Finding> RunRules(const std::string& file,
                              const std::string& content,
                              const SymbolIndex& index) {
  const LexResult lexed = Lex(content);
  const FileScan scan = ScanFile(lexed.tokens);
  std::vector<Finding> findings;
  Analysis a{lexed.tokens, lexed.suppressed, file, index, scan, &findings};
  CheckLoops(a);
  CheckHeldDeclarations(a);
  CheckDiscardedTasks(a);
  CheckDiscardedTimers(a);
  CheckBorrowedViewEscape(a);
  if (!IsEncapsulationExemptPath(file)) CheckEncapsulation(a);
  if (!IsTestPath(file) && file.rfind("bench/", 0) != 0) {
    CheckUncheckedDeadline(a);
  }
  if (IsWirePath(file)) CheckWireSymmetry(a);
  if (file.rfind("src/", 0) == 0) CheckUncheckedStatus(a);
  CheckIdleCoroutines(a);
  CheckConditionalAwaits(a);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  return findings;
}

// --- Linter facade -----------------------------------------------------

void Linter::CollectDeclarations(const std::string& file,
                                 const std::string& content) {
  index_.Collect(file, content);
}

std::vector<Finding> Linter::Analyze(const std::string& file,
                                     const std::string& content) const {
  return RunRules(file, content, index_);
}

// --- baseline ----------------------------------------------------------

namespace {

/// A deliberately small JSON reader: enough for the documents Render()
/// writes (objects, arrays, strings without exotic escapes, integers).
struct JsonReader {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;
  std::string error;

  void Fail(const std::string& why) {
    if (ok) {
      ok = false;
      error = why + " at offset " + std::to_string(i);
    }
  }
  void Ws() {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool Consume(char c) {
    Ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void Expect(char c) {
    if (!Consume(c)) Fail(std::string("expected '") + c + "'");
  }
  std::string String() {
    Ws();
    if (i >= s.size() || s[i] != '"') {
      Fail("expected string");
      return {};
    }
    ++i;
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out += s[i++];
    }
    Expect('"');
    return out;
  }
  long Int() {
    Ws();
    std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (start == i) {
      Fail("expected integer");
      return 0;
    }
    return std::stol(s.substr(start, i - start));
  }
};

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Baseline::Parse(const std::string& json, Baseline& out,
                     std::string& error) {
  JsonReader r{json, 0, true, {}};
  r.Expect('{');
  while (r.ok && !r.Consume('}')) {
    const std::string key = r.String();
    r.Expect(':');
    if (key == "entries") {
      r.Expect('[');
      while (r.ok && !r.Consume(']')) {
        r.Expect('{');
        std::string file, rule;
        int count = 0;
        while (r.ok && !r.Consume('}')) {
          const std::string field = r.String();
          r.Expect(':');
          if (field == "file") file = r.String();
          else if (field == "rule") rule = r.String();
          else if (field == "count") count = static_cast<int>(r.Int());
          else r.Fail("unknown entry field '" + field + "'");
          r.Consume(',');
        }
        if (file.empty() || rule.empty()) r.Fail("entry missing file/rule");
        out.allowed[{file, rule}] = count;
        r.Consume(',');
      }
    } else {
      // version (integer) or other scalar metadata: skip.
      r.Int();
    }
    r.Consume(',');
  }
  error = r.error;
  return r.ok;
}

std::string Baseline::Render(const std::vector<Finding>& findings) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Finding& f : findings) counts[{f.file, f.rule}]++;
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"entries\": [";
  bool first = true;
  for (const auto& [key, count] : counts) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"file\": \"" << JsonEscape(key.first) << "\", \"rule\": \""
        << key.second << "\", \"count\": " << count << "}";
  }
  out << (first ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const Baseline& baseline,
                                   std::vector<std::string>* stale_notes) {
  std::map<std::pair<std::string, std::string>, int> seen;
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    const int n = ++seen[{f.file, f.rule}];
    const auto it = baseline.allowed.find({f.file, f.rule});
    const int budget = it == baseline.allowed.end() ? 0 : it->second;
    if (n > budget) out.push_back(f);
  }
  if (stale_notes != nullptr) {
    for (const auto& [key, budget] : baseline.allowed) {
      const auto it = seen.find(key);
      const int actual = it == seen.end() ? 0 : it->second;
      if (actual < budget) {
        stale_notes->push_back(key.first + " " + key.second + ": baseline " +
                               std::to_string(budget) + ", actual " +
                               std::to_string(actual) +
                               " (shrink the baseline)");
      }
    }
  }
  return out;
}

std::vector<Finding> SubtractFindings(const std::vector<Finding>& current,
                                      const std::vector<Finding>& base) {
  // Match on (file, rule, message), ignoring lines: edits above a frozen
  // finding shift it without making it new.
  std::map<std::tuple<std::string, std::string, std::string>, int> budget;
  for (const Finding& f : base) ++budget[{f.file, f.rule, f.message}];
  std::vector<Finding> out;
  for (const Finding& f : current) {
    auto it = budget.find({f.file, f.rule, f.message});
    if (it != budget.end() && it->second > 0) {
      --it->second;
      continue;
    }
    out.push_back(f);
  }
  return out;
}

// --- rendering ---------------------------------------------------------

std::string RenderText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

std::string RenderJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
        << f.line << ", \"rule\": \"" << f.rule << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  out << (first ? "]\n" : "\n]\n");
  return out.str();
}

std::string RenderSarif(const std::vector<Finding>& findings) {
  struct RuleDoc {
    const char* id;
    const char* name;
    const char* text;
  };
  static const RuleDoc rules[] = {
      {"L1", "suspension-hazard",
       "reference/iterator/pointer into member state live across co_await"},
      {"L2", "discarded-task",
       "sim::Co / sim::Future result discarded at statement level"},
      {"L3", "encapsulation-leak",
       "transport internals touched outside the proxy layers"},
      {"L4", "unchecked-deadline",
       "RpcClient::Call without CallOptions in non-test code"},
      {"L5", "discarded-timer",
       "RAII sim::Timer temporary destroyed at the semicolon"},
      {"L6", "borrowed-view-escape",
       "borrowed view outlives its arrival OwnedBytes arena"},
      {"L7", "wire-asymmetry",
       "encoder/decoder field sequences drifted"},
      {"L8", "unchecked-status",
       "Status/Result discarded at statement level (incl. co_await)"},
      {"L9", "idle-coroutine",
       "sim::Co whose only await relays its callee (co_return co_await)"},
      {"L11", "conditional-await",
       "co_await inside the condition or an arm of a ?: expression"},
  };
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"proxy_lint\",\n"
      << "      \"rules\": [";
  bool first = true;
  for (const RuleDoc& r : rules) {
    if (!first) out << ",";
    first = false;
    out << "\n        {\"id\": \"" << r.id << "\", \"name\": \"" << r.name
        << "\", \"shortDescription\": {\"text\": \"" << r.text << "\"}}";
  }
  out << "\n      ]\n    }},\n"
      << "    \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out << ",";
    first = false;
    out << "\n      {\"ruleId\": \"" << f.rule
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << JsonEscape(f.message) << "\"}, \"locations\": [{"
        << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << JsonEscape(f.file) << "\"}, \"region\": {\"startLine\": "
        << f.line << "}}}]}";
  }
  out << "\n    ]\n  }]\n}\n";
  return out.str();
}

}  // namespace proxy_lint
