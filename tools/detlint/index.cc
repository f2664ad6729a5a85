// The structural index builder: a lightweight declaration parser over the
// detlint token stream. It is deliberately not a C++ parser — it tracks
// namespace/class scopes, splits class bodies into declarations, and brace-
// matches function bodies wholesale — the same pragmatic subset the
// whole-tree unhandled-message sweep uses, extended with enough state
// (angle-bracket depth, constructor-initializer-list tracking) to classify
// this repository's declarations correctly. Where real C++ outruns the
// heuristics (function pointers, lambdas in default member initializers),
// the failure mode is a skipped declaration, never a crash: rules built on
// the index only act on what was positively identified.

#include "index.h"

#include <set>

namespace detlint {
namespace {

bool IsPunct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

bool IsIdentTok(const Token& t, const char* s) {
  return t.kind == TokKind::kIdentifier && t.text == s;
}

// Keywords that can appear in a member declaration but are never its name.
bool IsDeclKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "const",    "constexpr", "constinit", "static",   "inline",  "mutable",
      "volatile", "virtual",   "explicit",  "typename", "struct",  "class",
      "union",    "enum",      "unsigned",  "signed",   "long",    "short",
      "int",      "char",      "bool",      "float",    "double",  "void",
      "auto",     "default",   "delete",    "nullptr",  "true",    "false",
      "noexcept", "override",  "final",     "operator", "extern",  "register",
      "thread_local",
  };
  return kKeywords.count(s) > 0;
}

class FileIndexer {
 public:
  FileIndexer(const SourceFile& file, Index* index)
      : file_(file), t_(file.tokens), index_(index) {}

  void Run() {
    ParseScope(0, t_.size(), nullptr);
    HarvestMessageTypeNames();
  }

 private:
  // Index of the '}' matching the '{' at `open` (or the last token when the
  // file is unbalanced — callers always make progress).
  size_t MatchBrace(size_t open) const {
    int depth = 0;
    for (size_t i = open; i < t_.size(); ++i) {
      if (IsPunct(t_[i], "{")) {
        ++depth;
      } else if (IsPunct(t_[i], "}")) {
        if (--depth == 0) {
          return i;
        }
      }
    }
    return t_.empty() ? 0 : t_.size() - 1;
  }

  // Skips a preprocessor directive starting at the '#': every token on its
  // line, plus continuation lines when a line ends with a backslash.
  size_t SkipPreprocessor(size_t i, size_t end) const {
    while (i < end) {
      const int line = t_[i].line;
      size_t j = i;
      while (j < end && t_[j].line == line) {
        ++j;
      }
      const bool continued = j > i && IsPunct(t_[j - 1], "\\");
      i = j;
      if (!continued) {
        break;
      }
    }
    return i;
  }

  // Skips a balanced '<...>' starting at `i` (which must be '<').
  size_t SkipAngles(size_t i, size_t end) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (IsPunct(t_[i], "<")) {
        ++depth;
      } else if (IsPunct(t_[i], ">")) {
        if (--depth <= 0) {
          return i + 1;
        }
      } else if (IsPunct(t_[i], ";") || IsPunct(t_[i], "{")) {
        return i;  // malformed; resynchronize
      }
    }
    return end;
  }

  std::string CurrentNs() const {
    std::string ns;
    for (const std::string& part : ns_stack_) {
      if (!ns.empty()) {
        ns += "::";
      }
      ns += part;
    }
    return ns;
  }

  // Parses declarations in [begin, end). `cls` is the enclosing class being
  // populated, or null at namespace scope.
  void ParseScope(size_t begin, size_t end, ClassInfo* cls) {
    size_t i = begin;
    while (i < end) {
      const Token& tok = t_[i];
      if (IsPunct(tok, ";") || IsPunct(tok, "}")) {
        ++i;
        continue;
      }
      if (IsPunct(tok, "#")) {
        i = SkipPreprocessor(i, end);
        continue;
      }
      if (cls == nullptr && IsIdentTok(tok, "namespace")) {
        i = ParseNamespace(i, end);
        continue;
      }
      if (IsIdentTok(tok, "template")) {
        ++i;
        if (i < end && IsPunct(t_[i], "<")) {
          i = SkipAngles(i, end);
        }
        continue;
      }
      if (IsIdentTok(tok, "using") || IsIdentTok(tok, "typedef") ||
          IsIdentTok(tok, "friend") || IsIdentTok(tok, "static_assert")) {
        i = SkipToSemicolon(i, end);
        continue;
      }
      if (cls != nullptr &&
          (IsIdentTok(tok, "public") || IsIdentTok(tok, "private") ||
           IsIdentTok(tok, "protected")) &&
          i + 1 < end && IsPunct(t_[i + 1], ":")) {
        i += 2;
        continue;
      }
      if (IsIdentTok(tok, "enum")) {
        i = SkipEnum(i, end);
        continue;
      }
      if (IsIdentTok(tok, "class") || IsIdentTok(tok, "struct") ||
          IsIdentTok(tok, "union")) {
        i = ParseClass(i, end);
        continue;
      }
      i = ParseDeclaration(i, end, cls);
    }
  }

  size_t ParseNamespace(size_t i, size_t end) {
    size_t j = i + 1;
    std::string name;
    while (j < end && !IsPunct(t_[j], "{") && !IsPunct(t_[j], ";") &&
           !IsPunct(t_[j], "=")) {
      if (t_[j].kind == TokKind::kIdentifier) {
        name = name.empty() ? t_[j].text : name + "::" + t_[j].text;
      }
      ++j;
    }
    if (j >= end || !IsPunct(t_[j], "{")) {
      return SkipToSemicolon(i, end);  // alias or declaration
    }
    const size_t close = MatchBrace(j);
    ns_stack_.push_back(name.empty() ? "(anon)" : name);
    ParseScope(j + 1, close, nullptr);
    ns_stack_.pop_back();
    return close + 1;
  }

  size_t SkipToSemicolon(size_t i, size_t end) const {
    for (; i < end; ++i) {
      if (IsPunct(t_[i], ";")) {
        return i + 1;
      }
      if (IsPunct(t_[i], "{")) {
        i = MatchBrace(i);
      }
    }
    return end;
  }

  size_t SkipEnum(size_t i, size_t end) const {
    size_t j = i + 1;
    while (j < end && !IsPunct(t_[j], "{") && !IsPunct(t_[j], ";")) {
      ++j;
    }
    if (j < end && IsPunct(t_[j], "{")) {
      j = MatchBrace(j) + 1;
    }
    return SkipToSemicolon(j, end);
  }

  size_t ParseClass(size_t i, size_t end) {
    size_t j = i + 1;
    std::string name;
    if (j < end && t_[j].kind == TokKind::kIdentifier && t_[j].text != "final") {
      name = t_[j].text;
      ++j;
    }
    if (j < end && IsPunct(t_[j], "<")) {
      j = SkipAngles(j, end);  // explicit specialization arguments
    }
    if (j < end && IsIdentTok(t_[j], "final")) {
      ++j;
    }
    if (j < end && IsPunct(t_[j], ":")) {  // skip the base-clause
      for (++j; j < end && !IsPunct(t_[j], "{") && !IsPunct(t_[j], ";"); ++j) {
        if (IsPunct(t_[j], "<")) {
          j = SkipAngles(j, end) - 1;  // template arguments end nothing
        }
      }
    }
    if (j >= end || !IsPunct(t_[j], "{")) {
      // Forward declaration or a variable of elaborated type.
      return SkipToSemicolon(i, end);
    }
    const size_t close = MatchBrace(j);
    ClassInfo cls;
    cls.name = name.empty() ? "(anon)" : name;
    cls.ns = CurrentNs();
    cls.file = &file_;
    cls.line = t_[i].line;
    cls.column = t_[i].column;
    const size_t slot = index_->classes.size();
    index_->classes.push_back(std::move(cls));
    // Nested classes may reallocate index_->classes during the recursive
    // parse, so re-fetch by slot and populate into a local first.
    ClassInfo local = std::move(index_->classes[slot]);
    ns_stack_.push_back(local.name);
    ParseScope(j + 1, close, &local);
    ns_stack_.pop_back();
    index_->classes[slot] = std::move(local);
    return SkipToSemicolon(close + 1, end);
  }

  // Parses one declaration statement at class or namespace scope and
  // records a member, a method, or a function definition.
  size_t ParseDeclaration(size_t i, size_t end, ClassInfo* cls) {
    const size_t start = i;
    int paren = 0;
    int angle = 0;
    size_t first_paren = kNone;
    size_t eq = kNone;
    size_t bracket = kNone;
    bool is_static = false;
    bool is_const = false;
    bool is_ref = false;
    bool is_ptr = false;
    size_t stop = end;
    bool stop_is_brace = false;
    for (size_t j = i; j < end; ++j) {
      const Token& t = t_[j];
      if (t.kind == TokKind::kIdentifier && paren == 0 && angle == 0 &&
          eq == kNone) {
        if (t.text == "static" || t.text == "constexpr" || t.text == "constinit") {
          is_static = true;
        } else if (t.text == "const" && first_paren == kNone) {
          is_const = true;
        }
        continue;
      }
      if (t.kind != TokKind::kPunct) {
        continue;
      }
      if (t.text == "(") {
        if (paren == 0 && angle == 0 && first_paren == kNone && eq == kNone) {
          first_paren = j;
        }
        ++paren;
      } else if (t.text == ")") {
        if (paren > 0) {
          --paren;
        }
      } else if (t.text == "<" && paren == 0 && eq == kNone) {
        ++angle;
      } else if (t.text == ">" && paren == 0 && eq == kNone) {
        if (angle > 0) {
          --angle;
        }
      } else if (paren == 0 && angle == 0) {
        if (t.text == "=" && eq == kNone && first_paren == kNone) {
          eq = j;
        } else if (t.text == "&" && eq == kNone && first_paren == kNone) {
          is_ref = true;
        } else if (t.text == "*" && eq == kNone && first_paren == kNone) {
          is_ptr = true;
        } else if (t.text == "[" && eq == kNone && bracket == kNone &&
                   first_paren == kNone) {
          bracket = j;
        } else if (t.text == ";") {
          stop = j;
          break;
        } else if (t.text == "{") {
          stop = j;
          stop_is_brace = true;
          break;
        }
      } else if (t.text == ";" && paren == 0) {
        stop = j;  // unbalanced angles (an expression, not a declaration)
        break;
      }
    }
    if (stop >= end) {
      return end;
    }

    if (first_paren != kNone) {
      return ParseFunction(start, first_paren, end, cls);
    }

    if (stop_is_brace) {
      // Brace-initialized member (`sim::Rng rng_{1};`) or a stray block.
      const size_t close = MatchBrace(stop);
      if (cls != nullptr) {
        RecordMember(start, stop, eq, bracket, is_static, is_const, is_ref,
                     is_ptr, cls);
      }
      return SkipToSemicolon(close + 1, end);
    }
    if (cls != nullptr) {
      RecordMember(start, stop, eq, bracket, is_static, is_const, is_ref, is_ptr,
                   cls);
    }
    return stop + 1;
  }

  void RecordMember(size_t start, size_t stop, size_t eq, size_t bracket,
                    bool is_static, bool is_const, bool is_ref, bool is_ptr,
                    ClassInfo* cls) {
    // The declared name: the last identifier before the initializer (or the
    // array bound, or the terminator).
    size_t limit = stop;
    if (eq != kNone && eq < limit) {
      limit = eq;
    }
    if (bracket != kNone && bracket < limit) {
      limit = bracket;
    }
    size_t name_at = kNone;
    for (size_t j = limit; j > start;) {
      --j;
      if (t_[j].kind == TokKind::kIdentifier) {
        if (IsDeclKeyword(t_[j].text)) {
          return;  // `int;`-style junk or a keyword-only fragment
        }
        name_at = j;
        break;
      }
      if (!IsPunct(t_[j], "&") && !IsPunct(t_[j], "*") && !IsPunct(t_[j], "]")) {
        break;
      }
    }
    if (name_at == kNone) {
      return;
    }
    MemberInfo member;
    member.name = t_[name_at].text;
    member.line = t_[name_at].line;
    member.column = t_[name_at].column;
    member.is_static = is_static;
    member.is_const = is_const;
    member.is_reference = is_ref;
    member.is_pointer = is_ptr;
    cls->members.push_back(std::move(member));
  }

  // Handles a declaration whose top-level '(' was found: a method
  // declaration, a method/function definition (with constructor-initializer
  // lists), or `= default/delete/0` forms.
  size_t ParseFunction(size_t start, size_t first_paren, size_t end,
                       ClassInfo* cls) {
    // Name and (for out-of-line definitions) the Class:: qualification.
    std::string name;
    std::vector<std::string> quals;
    if (first_paren > start && t_[first_paren - 1].kind == TokKind::kIdentifier) {
      name = t_[first_paren - 1].text;
      size_t q = first_paren - 1;
      while (q >= start + 3 && IsPunct(t_[q - 1], ":") && IsPunct(t_[q - 2], ":") &&
             t_[q - 3].kind == TokKind::kIdentifier) {
        quals.push_back(t_[q - 3].text);
        q -= 3;
      }
    }

    // Find the ')' closing the parameter list, then classify the tail.
    size_t pclose = first_paren;
    int depth = 0;
    for (size_t j = first_paren; j < end; ++j) {
      if (IsPunct(t_[j], "(")) {
        ++depth;
      } else if (IsPunct(t_[j], ")")) {
        if (--depth == 0) {
          pclose = j;
          break;
        }
      }
    }

    size_t body = kNone;
    size_t j = pclose + 1;
    bool in_init_list = false;
    while (j < end) {
      const Token& t = t_[j];
      if (IsIdentTok(t, "const")) {
        ++j;
        continue;
      }
      if (IsIdentTok(t, "override") || IsIdentTok(t, "final") ||
          IsIdentTok(t, "noexcept")) {
        ++j;
        if (j < end && IsPunct(t_[j], "(")) {  // noexcept(...)
          int d = 0;
          for (; j < end; ++j) {
            if (IsPunct(t_[j], "(")) {
              ++d;
            } else if (IsPunct(t_[j], ")")) {
              if (--d == 0) {
                ++j;
                break;
              }
            }
          }
        }
        continue;
      }
      if (IsPunct(t, ";")) {
        break;  // declaration only
      }
      if (IsPunct(t, "=")) {
        j = SkipToSemicolon(j, end) - 1;  // `= 0` / `= default` / `= delete`
        break;
      }
      if (IsPunct(t, ":") && !(j + 1 < end && IsPunct(t_[j + 1], ":"))) {
        in_init_list = true;
        ++j;
        continue;
      }
      if (IsPunct(t, "{")) {
        if (!in_init_list) {
          body = j;
          break;
        }
        // Constructor-initializer brace (`: a_{1}`) or the body: a member
        // init is always followed by ',' or by the body's '{'.
        const size_t close = MatchBrace(j);
        if (close + 1 < end && IsPunct(t_[close + 1], ",")) {
          j = close + 2;
          continue;
        }
        if (close + 1 < end && IsPunct(t_[close + 1], "{")) {
          body = close + 1;
          break;
        }
        body = j;  // this brace was the body after all
        break;
      }
      if (IsPunct(t, "(")) {  // a parenthesized member initializer
        int d = 0;
        for (; j < end; ++j) {
          if (IsPunct(t_[j], "(")) {
            ++d;
          } else if (IsPunct(t_[j], ")")) {
            if (--d == 0) {
              ++j;
              break;
            }
          }
        }
        continue;
      }
      ++j;
    }

    size_t next = body != kNone ? MatchBrace(body) + 1 : SkipToSemicolon(j, end);

    if (cls != nullptr && quals.empty() && !name.empty()) {
      MethodInfo method;
      method.name = name;
      method.line = t_[first_paren - 1].line;
      method.column = t_[first_paren - 1].column;
      if (body != kNone) {
        method.has_inline_body = true;
        method.body_begin = body;
        method.body_end = MatchBrace(body);
        RecordFunctionDef(cls->name, name, CurrentNsWithoutClass(), body,
                          method.body_end, first_paren - 1);
      }
      cls->methods.push_back(std::move(method));
    } else if (body != kNone && !name.empty()) {
      // Out-of-line definition or free function at namespace scope.
      std::string class_name;
      std::string ns = CurrentNs();
      if (!quals.empty()) {
        class_name = quals.front();  // innermost qualifier
        for (size_t q = quals.size(); q > 1;) {
          --q;
          ns = ns.empty() ? quals[q] : ns + "::" + quals[q];
        }
      }
      RecordFunctionDef(class_name, name, ns, body, MatchBrace(body),
                        first_paren - 1);
    }
    return next;
  }

  // The namespace path excluding the class name ns_stack_ currently ends
  // with (inline methods are recorded against the class's namespace).
  std::string CurrentNsWithoutClass() const {
    std::string ns;
    for (size_t k = 0; k + 1 < ns_stack_.size(); ++k) {
      if (!ns.empty()) {
        ns += "::";
      }
      ns += ns_stack_[k];
    }
    return ns;
  }

  void RecordFunctionDef(const std::string& class_name, const std::string& name,
                         const std::string& ns, size_t body_begin,
                         size_t body_end, size_t name_tok) {
    FunctionDef def;
    def.class_name = class_name;
    def.method_name = name;
    def.ns = ns;
    def.file = &file_;
    def.body_begin = body_begin;
    def.body_end = body_end;
    def.line = t_[name_tok].line;
    index_->functions.push_back(def);
  }

  // Collects the name each message descriptor declares,
  // `MessageType kType{"pbkv.Replicate"}` (or `= {...}`) — the protocol
  // vocabulary scnlint validates `inject` clauses against.
  void HarvestMessageTypeNames() {
    for (size_t i = 0; i + 2 < t_.size(); ++i) {
      if (!IsIdentTok(t_[i], "MessageType") || !IsIdentTok(t_[i + 1], "kType")) {
        continue;
      }
      size_t j = i + 2;
      while (j < t_.size() && (IsPunct(t_[j], "=") || IsPunct(t_[j], "{"))) {
        ++j;
      }
      if (j < t_.size() && t_[j].kind == TokKind::kString && !t_[j].text.empty()) {
        index_->message_type_names.insert(t_[j].text);
      }
    }
  }

  static constexpr size_t kNone = static_cast<size_t>(-1);

  const SourceFile& file_;
  const std::vector<Token>& t_;
  Index* index_;
  std::vector<std::string> ns_stack_;
};

}  // namespace

const MethodInfo* ClassInfo::FindMethod(const std::string& method) const {
  for (const MethodInfo& m : methods) {
    if (m.name == method) {
      return &m;
    }
  }
  return nullptr;
}

bool Index::FindBody(const ClassInfo& cls, const std::string& method,
                     const SourceFile** file, size_t* begin, size_t* end) const {
  const MethodInfo* m = cls.FindMethod(method);
  if (m != nullptr && m->has_inline_body) {
    *file = cls.file;
    *begin = m->body_begin;
    *end = m->body_end;
    return true;
  }
  const FunctionDef* fallback = nullptr;
  for (const FunctionDef& def : functions) {
    if (def.class_name != cls.name || def.method_name != method) {
      continue;
    }
    if (def.ns == cls.ns) {
      *file = def.file;
      *begin = def.body_begin;
      *end = def.body_end;
      return true;
    }
    if (fallback == nullptr) {
      fallback = &def;
    }
  }
  if (fallback != nullptr) {
    *file = fallback->file;
    *begin = fallback->body_begin;
    *end = fallback->body_end;
    return true;
  }
  return false;
}

Index BuildIndex(const std::vector<SourceFile>& sources) {
  Index index;
  for (const SourceFile& file : sources) {
    FileIndexer indexer(file, &index);
    indexer.Run();
  }
  return index;
}

}  // namespace detlint
