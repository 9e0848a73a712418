#include "proxy_lint/index.h"

#include <cctype>
#include <optional>

namespace proxy_lint {

namespace {

bool IsTypeKeyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "void", "bool",  "char", "int",      "long",  "short",
      "float", "double", "auto", "unsigned", "signed"};
  return kw.contains(s);
}

bool CanAnchorType(const Tokens& t, std::size_t i) {
  if (i >= t.size() || t[i].kind != Tok::kIdent) return false;
  return IsIdent(t, i) || IsTypeKeyword(t[i].text);
}

/// A successfully parsed `TYPE [<args>] [&|*|const] [Class::]* NAME (`.
struct DeclShape {
  std::size_t type_begin = 0;
  std::size_t type_end = 0;  // one past the type's tokens
  std::string cls;           // last explicit qualifier ("" if none)
  std::string name;
  std::size_t name_idx = 0;
  std::size_t past_params = 0;  // just past the closing ')'
};

std::optional<DeclShape> ParseDeclAt(const Tokens& t, std::size_t i) {
  if (!CanAnchorType(t, i)) return std::nullopt;
  DeclShape d;
  d.type_begin = i;
  std::size_t p = i + 1;
  if (Is(t, p, "<")) {
    p = SkipTemplateArgs(t, p);
    if (p >= t.size()) return std::nullopt;
  }
  d.type_end = p;
  while (Is(t, p, "&") || Is(t, p, "&&") || Is(t, p, "*") ||
         Is(t, p, "const")) {
    ++p;
  }
  while (IsIdent(t, p) && Is(t, p + 1, "::")) {
    d.cls = t[p].text;
    p += 2;
  }
  if (!IsIdent(t, p) || !Is(t, p + 1, "(")) return std::nullopt;
  d.name = t[p].text;
  d.name_idx = p;
  d.past_params = SkipBalanced(t, p + 1);
  return d;
}

/// Parses the type after a `->` trailing-return marker. Returns the
/// normalized type and leaves `*past` one past its tokens.
std::string ParseTrailingType(const Tokens& t, std::size_t arrow,
                              std::size_t* past) {
  std::size_t q = arrow + 1;
  std::size_t anchor = q;
  while (CanAnchorType(t, q)) {
    anchor = q;
    if (Is(t, q + 1, "::")) {
      q += 2;
      continue;
    }
    ++q;
    break;
  }
  if (anchor >= t.size() || !CanAnchorType(t, anchor)) {
    *past = arrow + 1;
    return "";
  }
  std::size_t tend = anchor + 1;
  if (Is(t, tend, "<")) {
    const std::size_t skipped = SkipTemplateArgs(t, tend);
    if (skipped < t.size()) tend = skipped;
  }
  *past = tend;
  return NormalizeType(t, anchor, tend);
}

/// From just past a parameter list, finds the `{` opening a function
/// body, skipping cv/ref/noexcept/override qualifiers and capturing a
/// trailing return type if present. Returns npos-like t.size() when the
/// tokens are a plain declaration (`;`, `= default`, `,`, ...).
std::size_t FindBodyBrace(const Tokens& t, std::size_t p,
                          std::string* trailing_ret) {
  while (p < t.size()) {
    const std::string& s = t[p].text;
    if (s == "{") return p;
    if (s == "const" || s == "mutable" || s == "override" || s == "final" ||
        s == "&" || s == "&&") {
      ++p;
      continue;
    }
    if (s == "noexcept") {
      ++p;
      if (Is(t, p, "(")) p = SkipBalanced(t, p);
      continue;
    }
    if (s == "->") {
      const std::string ret = ParseTrailingType(t, p, &p);
      if (!ret.empty() && trailing_ret != nullptr) *trailing_ret = ret;
      continue;
    }
    return t.size();
  }
  return t.size();
}

}  // namespace

std::string NormalizeType(const Tokens& t, std::size_t from, std::size_t to) {
  std::string out;
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    const bool sep = !out.empty() && t[i].kind == Tok::kIdent &&
                     (std::isalnum(static_cast<unsigned char>(out.back())) ||
                      out.back() == '_');
    if (sep) out += ' ';
    out += t[i].text;
  }
  return out;
}

std::vector<std::string> TypeWords(const std::string& type) {
  std::vector<std::string> words;
  std::string cur;
  for (char c : type) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      cur += c;
    } else if (!cur.empty()) {
      words.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) words.push_back(cur);
  return words;
}

namespace {

/// TypeWords minus namespace qualifiers and builtin words: this repo's
/// namespaces (sim, core, rpc, std, ...) and builtins (void, bool, ...)
/// are lowercase-initial, its class names CapitalCase, so dropping the
/// lowercase words leaves the type heads the predicates care about
/// ("sim::Co<core::Status>" -> {"Co", "Status"}).
std::vector<std::string> TypeHeadWords(const std::string& type) {
  std::vector<std::string> heads;
  for (const std::string& w : TypeWords(type)) {
    if (!w.empty() && std::isupper(static_cast<unsigned char>(w[0]))) {
      heads.push_back(w);
    }
  }
  return heads;
}

}  // namespace

bool TypeIsAwaitable(const std::string& type) {
  const std::vector<std::string> w = TypeHeadWords(type);
  return !w.empty() &&
         (w[0] == "Co" || w[0] == "Future" || w[0] == "TypedReply");
}

bool TypeIsCoroutine(const std::string& type) {
  const std::vector<std::string> w = TypeHeadWords(type);
  return !w.empty() && w[0] == "Co";
}

bool TypeIsStatusLike(const std::string& type) {
  const std::vector<std::string> w = TypeHeadWords(type);
  return !w.empty() && (w[0] == "Status" || w[0] == "Result" ||
                        w[0] == "StatusOr");
}

bool TypeIsAwaitedStatus(const std::string& type) {
  const std::vector<std::string> w = TypeHeadWords(type);
  // rpc::TypedReply<Resp> always resumes with Result<Resp>.
  if (!w.empty() && w[0] == "TypedReply") return true;
  return w.size() >= 2 && (w[0] == "Co" || w[0] == "Future") &&
         (w[1] == "Status" || w[1] == "Result" || w[1] == "StatusOr");
}

FileScan ScanFile(const Tokens& t) {
  FileScan out;
  struct ClsEntry {
    std::string name;
    int depth;  // brace depth inside the class body
  };
  std::vector<ClsEntry> stack;
  std::map<std::size_t, std::string> pending_class;  // '{' index -> name
  int depth = 0;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      ++depth;
      if (const auto it = pending_class.find(i); it != pending_class.end()) {
        stack.push_back({it->second, depth});
      }
      continue;
    }
    if (s == "}") {
      while (!stack.empty() && stack.back().depth >= depth) stack.pop_back();
      --depth;
      continue;
    }

    // Class/struct definition head (not `enum class`, not a template
    // parameter introducer).
    if ((s == "class" || s == "struct") &&
        !(i > 0 && Is(t, i - 1, "enum")) &&
        !(i > 0 && (Is(t, i - 1, "<") || Is(t, i - 1, ",")))) {
      std::size_t j = i + 1;
      while (Is(t, j, "[")) j = SkipBalanced(t, j);  // [[nodiscard]] etc.
      if (!IsIdent(t, j)) continue;
      const std::string name = t[j].text;
      std::size_t k = j + 1;
      if (Is(t, k, "<")) {
        const std::size_t skipped = SkipTemplateArgs(t, k);
        if (skipped < t.size()) k = skipped;
      }
      while (k < t.size() && !Is(t, k, "{") && !Is(t, k, ";") &&
             !Is(t, k, "(") && !Is(t, k, "=")) {
        ++k;
      }
      if (k < t.size() && Is(t, k, "{")) {
        pending_class[k] = name;
        out.classes.push_back(name);
      }
      continue;
    }

    if (!CanAnchorType(t, i)) continue;

    // Function declaration / definition.
    if (const auto d = ParseDeclAt(t, i); d.has_value()) {
      std::string cls = d->cls;
      if (cls.empty() && !stack.empty() && depth == stack.back().depth) {
        cls = stack.back().name;
      }
      std::string ret = NormalizeType(t, d->type_begin, d->type_end);
      const std::size_t body = FindBodyBrace(t, d->past_params, &ret);
      out.declared.push_back({cls, d->name, ret});
      if (body < t.size()) {
        out.functions.push_back({body + 1, SkipBalanced(t, body) - 1, cls,
                                 d->name, ret, t[d->name_idx].line});
      }
      i = d->past_params - 1;  // do not scan parameters as declarations
      continue;
    }

    // Member field, at the immediate depth of an open class body:
    // `TYPE [<args>] [&|*|const] name_ (;|=|{)`. Static/constexpr
    // members are class-level constants, not per-instance state — they
    // must not feed the view-holding fixpoint (every service interface
    // carries a `static constexpr std::string_view kInterfaceName`).
    if (!stack.empty() && depth == stack.back().depth) {
      bool class_level = false;
      // Look back from the start of the qualified type chain (the
      // anchor sits on the last segment of `std::string_view`).
      for (std::size_t back = QualifiedChainStart(t, i); back > 0; --back) {
        const std::string& q = t[back - 1].text;
        if (q == "static" || q == "constexpr") {
          class_level = true;
          continue;
        }
        if (q == "inline" || q == "const" || q == "mutable") continue;
        break;
      }
      if (class_level) continue;
      std::size_t p = i + 1;
      if (Is(t, p, "<")) {
        p = SkipTemplateArgs(t, p);
        if (p >= t.size()) continue;
      }
      const std::size_t type_end = p;
      while (Is(t, p, "&") || Is(t, p, "*") || Is(t, p, "const")) ++p;
      if (IsIdent(t, p) &&
          (Is(t, p + 1, ";") || Is(t, p + 1, "=") || Is(t, p + 1, "{"))) {
        out.members.push_back({stack.back().name, t[p].text,
                               NormalizeType(t, i, type_end)});
        const std::size_t end = StatementEnd(t, p);
        if (end >= t.size()) continue;
        i = end;
      }
    }
  }

  // Lambdas: `] (params) [quals] [-> T] {` or `] {`. Scanned separately
  // so their bodies nest as inner spans (innermost span wins when rules
  // resolve the return type at a token).
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!Is(t, i, "]")) continue;
    std::size_t p = i + 1;
    std::string ret;
    if (Is(t, p, "(")) {
      p = SkipBalanced(t, p);
      p = FindBodyBrace(t, p, &ret);
    }
    if (p < t.size() && Is(t, p, "{")) {
      out.functions.push_back(
          {p + 1, SkipBalanced(t, p) - 1, "", "", ret, t[i].line});
    }
  }

  return out;
}

void SymbolIndex::Collect(const std::string& file,
                          const std::string& content) {
  finalized_ = false;
  const LexResult lexed = Lex(content);
  const FileScan scan = ScanFile(lexed.tokens);
  for (const FunctionDecl& f : scan.declared) {
    const std::string key = f.cls.empty() ? f.name : f.cls + "::" + f.name;
    functions_[key].insert(f.ret);
    by_name_[f.name].insert(f.ret);
  }
  for (const MemberDecl& m : scan.members) {
    member_type_[m.cls + "::" + m.name] = m.type;
    member_by_name_[m.name].insert(m.type);
    class_member_types_[m.cls].push_back(m.type);
  }
  for (const std::string& cls : scan.classes) {
    class_file_.emplace(cls, file);
  }
}

const std::set<std::string>* SymbolIndex::Lookup(
    const std::string& cls, const std::string& name) const {
  const std::string key = cls.empty() ? name : cls + "::" + name;
  const auto it = functions_.find(key);
  return it == functions_.end() ? nullptr : &it->second;
}

const std::set<std::string>* SymbolIndex::LookupByName(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::string SymbolIndex::MemberType(const std::string& cls,
                                    const std::string& field) const {
  const auto it = member_type_.find(cls + "::" + field);
  return it == member_type_.end() ? "" : it->second;
}

std::set<std::string> SymbolIndex::MemberTypesByName(
    const std::string& field) const {
  const auto it = member_by_name_.find(field);
  return it == member_by_name_.end() ? std::set<std::string>{} : it->second;
}

bool SymbolIndex::HasClass(const std::string& cls) const {
  return class_file_.contains(cls);
}

std::string SymbolIndex::FileOfClass(const std::string& cls) const {
  const auto it = class_file_.find(cls);
  return it == class_file_.end() ? "" : it->second;
}

void SymbolIndex::Finalize() const {
  if (finalized_) return;
  finalized_ = true;
  view_holding_ = {"BytesView", "string_view"};
  // A class that owns an OwnedBytes arena alongside its view(s) is
  // self-contained — the sanctioned view+arena pair (QueuedRequest) —
  // and must not propagate "borrows someone else's storage" upward.
  std::set<std::string> self_owning;
  for (const auto& [cls, types] : class_member_types_) {
    for (const std::string& type : types) {
      for (const std::string& w : TypeWords(type)) {
        if (w == "OwnedBytes") {
          self_owning.insert(cls);
          break;
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [cls, types] : class_member_types_) {
      if (view_holding_.contains(cls) || self_owning.contains(cls)) continue;
      for (const std::string& type : types) {
        bool holds = false;
        for (const std::string& w : TypeWords(type)) {
          if (view_holding_.contains(w)) {
            holds = true;
            break;
          }
        }
        if (holds) {
          view_holding_.insert(cls);
          changed = true;
          break;
        }
      }
    }
  }
}

bool SymbolIndex::TypeHoldsView(const std::string& type) const {
  Finalize();
  for (const std::string& w : TypeWords(type)) {
    if (view_holding_.contains(w)) return true;
  }
  return false;
}

bool SymbolIndex::IsViewHoldingClass(const std::string& cls) const {
  Finalize();
  return view_holding_.contains(cls);
}

}  // namespace proxy_lint
