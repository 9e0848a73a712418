// proxy_lint pass 1: the cross-TU symbol index.
//
// One scan over every file in the tree records
//   - function declarations and definitions with their return types
//     (keyed "Class::Name" and, as a fallback, by bare name),
//   - member fields with their declared types ("Class::field_"),
//   - which file defines each class,
// so pass 2 can resolve a call site to an actual return type instead of
// guessing from the callee's name. The index also computes, as a
// fixpoint over the member table, the set of classes that transitively
// hold a borrowed view (BytesView / std::string_view) — the types the
// L6 escape analysis must keep inside the arrival arena's lifetime.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "proxy_lint/lexer.h"

namespace proxy_lint {

/// A function definition's body extent plus identity, in token indices.
struct FuncSpan {
  std::size_t body_begin = 0;  // just past the opening '{'
  std::size_t body_end = 0;    // index of the matching '}'
  std::string cls;   // qualifying/enclosing class ("" = free fn or lambda)
  std::string name;  // "" for lambdas
  std::string ret;   // normalized return type ("" = unknown, e.g. lambdas)
  int line = 0;      // line of the function's name (or lambda introducer)
};

struct FunctionDecl {
  std::string cls;
  std::string name;
  std::string ret;
};

struct MemberDecl {
  std::string cls;
  std::string name;
  std::string type;
};

/// Everything one file contributes to the index (also reused by pass-2
/// rules that need function extents in the file under analysis).
struct FileScan {
  std::vector<FuncSpan> functions;     // definitions with bodies
  std::vector<FunctionDecl> declared;  // every declaration, body or not
  std::vector<MemberDecl> members;
  std::vector<std::string> classes;
};

FileScan ScanFile(const Tokens& t);

/// Joined display form of a type's tokens: "Result<RequestFrameView>".
std::string NormalizeType(const Tokens& t, std::size_t from, std::size_t to);

/// The identifier words of a normalized type string ("sim::Co<Status>"
/// -> {"sim", "Co", "Status"}).
std::vector<std::string> TypeWords(const std::string& type);

/// Return-type predicates over normalized type strings.
/// Awaitables: Co<...>, Future<...> and rpc::TypedReply<...>, which
/// always resumes with a Result.
bool TypeIsAwaitable(const std::string& type);
bool TypeIsStatusLike(const std::string& type);     // Status / Result<...>
bool TypeIsAwaitedStatus(const std::string& type);  // Co<Status>, Co<Result<..>>
bool TypeIsCoroutine(const std::string& type);      // Co<...>

class SymbolIndex {
 public:
  /// Pass 1 entry point: folds one file into the index.
  void Collect(const std::string& file, const std::string& content);

  /// Return types recorded for `cls::name` (`cls` empty = free function).
  /// Null when nothing was recorded under that key.
  const std::set<std::string>* Lookup(const std::string& cls,
                                      const std::string& name) const;

  /// Union of return types for `name` across every class and namespace —
  /// the name-based fallback when the receiver can't be resolved. The
  /// old ambiguity guard falls out of it: a name declared with several
  /// return types yields a mixed set, and no rule fires on a mixed set.
  const std::set<std::string>* LookupByName(const std::string& name) const;

  /// Declared type of `cls::field`, or "" when unknown.
  std::string MemberType(const std::string& cls,
                         const std::string& field) const;

  /// Types of any member named `field`, across all classes.
  std::set<std::string> MemberTypesByName(const std::string& field) const;

  bool HasClass(const std::string& cls) const;
  std::string FileOfClass(const std::string& cls) const;

  /// True when `type`'s words name a borrowed view (BytesView,
  /// std::string_view) or a class that transitively holds one.
  bool TypeHoldsView(const std::string& type) const;
  bool IsViewHoldingClass(const std::string& cls) const;

 private:
  void Finalize() const;

  std::map<std::string, std::set<std::string>> functions_;  // "Cls::Name"
  std::map<std::string, std::set<std::string>> by_name_;    // "Name"
  std::map<std::string, std::string> member_type_;          // "Cls::field"
  std::map<std::string, std::set<std::string>> member_by_name_;
  // cls -> its members' types (feeds the view-holding fixpoint).
  std::map<std::string, std::vector<std::string>> class_member_types_;
  std::map<std::string, std::string> class_file_;

  // Computed lazily after collection (Analyze is const on the Linter).
  mutable std::set<std::string> view_holding_;
  mutable bool finalized_ = false;
};

}  // namespace proxy_lint
