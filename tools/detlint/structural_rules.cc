// Structural rule families: per-class, cross-file contracts over the
// index (index.h). These are the checks the token-level rules cannot
// express — the paper's partition failures hide in omissions (one
// mechanism left out of a replication or reclaim path), and this repo's
// analogue is one mutable field left out of a Snapshot/Restore pair or
// one hash-ordered value laundered into a digest through a helper.
//
//   snapshot-field-coverage  every mutable data member of a class with a
//                            capture/restore pair must appear in BOTH
//                            bodies (or carry an allow with a reason)
//   digest-taint             a function returning a value minted from
//                            unordered-container iteration must not feed
//                            a digest/coverage sink in any caller

#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.h"

namespace detlint {
namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string SnippetAt(const SourceFile& file, int line) {
  if (line < 1 || static_cast<size_t>(line) > file.lines.size()) {
    return "";
  }
  return Trim(file.lines[static_cast<size_t>(line) - 1]);
}

void EmitAt(const SourceFile& file, int line, int column, const std::string& rule,
            const std::string& message, const std::string& subject,
            std::vector<Finding>* out) {
  Finding finding;
  finding.rule = rule;
  finding.file = file.path;
  finding.line = line;
  finding.column = column;
  finding.message = message;
  finding.snippet = SnippetAt(file, line);
  finding.subject = subject;
  out->push_back(std::move(finding));
}

bool IsIdentTok(const Token& t, const char* s) {
  return t.kind == TokKind::kIdentifier && t.text == s;
}

// bench/ sources are indexed (their dispatch/call sites matter to the
// whole-tree view) but carry only the determinism rules, so no structural
// finding anchors in them.
bool InBench(const std::string& path) {
  return path.rfind("bench/", 0) == 0 || path.find("/bench/") != std::string::npos;
}

bool IsPunct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

// True when `name` appears as an identifier anywhere in [begin, end].
bool BodyReferences(const SourceFile& file, size_t begin, size_t end,
                    const std::string& name) {
  for (size_t i = begin; i <= end && i < file.tokens.size(); ++i) {
    if (file.tokens[i].kind == TokKind::kIdentifier && file.tokens[i].text == name) {
      return true;
    }
  }
  return false;
}

// --- snapshot-field-coverage ------------------------------------------------

struct CapturePair {
  const char* capture;
  const char* restore;
};

// The repo's three capture/restore naming conventions (neat/system.h,
// net/network.h & the model systems, cluster/process.h).
constexpr CapturePair kPairs[] = {
    {"Snapshot", "Restore"},
    {"CaptureState", "RestoreState"},
    {"CaptureKernel", "RestoreKernel"},
};

void CheckSnapshotFieldCoverage(const Index& index, std::vector<Finding>* out) {
  for (const ClassInfo& cls : index.classes) {
    if (InBench(cls.file->path)) {
      continue;
    }
    for (const CapturePair& pair : kPairs) {
      if (cls.FindMethod(pair.capture) == nullptr ||
          cls.FindMethod(pair.restore) == nullptr) {
        continue;
      }
      const SourceFile* cap_file = nullptr;
      const SourceFile* res_file = nullptr;
      size_t cap_begin = 0, cap_end = 0, res_begin = 0, res_end = 0;
      if (!index.FindBody(cls, pair.capture, &cap_file, &cap_begin, &cap_end) ||
          !index.FindBody(cls, pair.restore, &res_file, &res_begin, &res_end)) {
        continue;  // declaration-only in the scanned set; nothing to audit
      }
      for (const MemberInfo& member : cls.members) {
        if (member.is_const || member.is_reference || member.is_pointer ||
            member.is_static) {
          continue;  // wiring or immutable, not per-run state
        }
        const bool in_capture =
            BodyReferences(*cap_file, cap_begin, cap_end, member.name);
        const bool in_restore =
            BodyReferences(*res_file, res_begin, res_end, member.name);
        if (in_capture && in_restore) {
          continue;
        }
        std::string where;
        if (!in_capture && !in_restore) {
          where = std::string(pair.capture) + "() and " + pair.restore + "()";
        } else if (!in_capture) {
          where = std::string(pair.capture) + "()";
        } else {
          where = std::string(pair.restore) + "()";
        }
        EmitAt(*cls.file, member.line, member.column, "snapshot-field-coverage",
               "mutable member '" + member.name + "' of '" + cls.name +
                   "' is not referenced in " + where +
                   ": a field left out of the capture/restore pair silently "
                   "breaks fork==replay byte-identity — transfer it, or "
                   "suppress with the reason it is derived or rebuilt",
               cls.name + "::" + member.name, out);
      }
    }
  }
}

// --- digest-taint -----------------------------------------------------------

// Names of variables declared with an unordered container type anywhere in
// the file (duplicated from rules.cc's token-level pass; the structural
// rule needs it per-file too).
std::set<std::string> UnorderedNames(const std::vector<Token>& tokens) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  std::set<std::string> names;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdentifier || kUnordered.count(tokens[i].text) == 0) {
      continue;
    }
    size_t j = i + 1;
    if (j >= tokens.size() || !IsPunct(tokens[j], "<")) {
      continue;
    }
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].kind != TokKind::kPunct) {
        continue;
      }
      if (tokens[j].text == "<") {
        ++depth;
      } else if (tokens[j].text == ">") {
        if (--depth == 0) {
          break;
        }
      }
    }
    for (++j; j < tokens.size(); ++j) {
      const Token& t = tokens[j];
      if (t.kind == TokKind::kPunct && (t.text == "&" || t.text == "*")) {
        continue;
      }
      if (IsIdentTok(t, "const")) {
        continue;
      }
      if (t.kind == TokKind::kIdentifier) {
        names.insert(t.text);
      }
      break;
    }
  }
  return names;
}

struct TaintInfo {
  bool tainted_return = false;
  std::string container;  // the unordered container the value came from
};

// Per-body taint analysis: does this function return a value minted from
// unordered-container iteration (and not laundered through a sort)?
TaintInfo AnalyzeBody(const FunctionDef& def) {
  TaintInfo info;
  const std::vector<Token>& t = def.file->tokens;
  const std::set<std::string> unordered = UnorderedNames(t);
  if (unordered.empty()) {
    return info;
  }
  std::set<std::string> tainted;
  std::string container;
  for (size_t i = def.body_begin; i < def.body_end; ++i) {
    // Range-for over an unordered container: the loop variable is tainted.
    if (IsIdentTok(t[i], "for") && i + 1 < def.body_end && IsPunct(t[i + 1], "(")) {
      int depth = 0;
      size_t colon = 0, close = 0;
      for (size_t j = i + 1; j <= def.body_end; ++j) {
        if (t[j].kind != TokKind::kPunct) {
          continue;
        }
        if (t[j].text == "(") {
          ++depth;
        } else if (t[j].text == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (t[j].text == ":" && depth == 1 && colon == 0 &&
                   !IsPunct(t[j - 1], ":") && !IsPunct(t[j + 1], ":")) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) {
        continue;
      }
      bool over_unordered = false;
      for (size_t j = colon + 1; j < close; ++j) {
        if (t[j].kind == TokKind::kIdentifier && unordered.count(t[j].text) > 0) {
          over_unordered = true;
          container = t[j].text;
        }
      }
      if (!over_unordered) {
        continue;
      }
      // Loop variable: the last identifier before the ':'.
      for (size_t j = colon; j > i;) {
        --j;
        if (t[j].kind == TokKind::kIdentifier) {
          tainted.insert(t[j].text);
          break;
        }
      }
      // Identifiers mutated inside the loop body pick up the taint: the
      // first identifier of any `x.push_back/insert/emplace*/[...]` or
      // `x += ...` statement between the loop's braces.
      if (close + 1 <= def.body_end && IsPunct(t[close + 1], "{")) {
        int bdepth = 0;
        size_t j = close + 1;
        size_t stmt_first = 0;
        for (; j <= def.body_end; ++j) {
          if (IsPunct(t[j], "{")) {
            ++bdepth;
            stmt_first = 0;
            continue;
          }
          if (IsPunct(t[j], "}")) {
            if (--bdepth == 0) {
              break;
            }
            continue;
          }
          if (IsPunct(t[j], ";")) {
            stmt_first = 0;
            continue;
          }
          if (stmt_first == 0 && t[j].kind == TokKind::kIdentifier) {
            stmt_first = j;
            continue;
          }
          if (stmt_first != 0 && t[j].kind == TokKind::kIdentifier &&
              j == stmt_first + 2 && IsPunct(t[j - 1], ".") &&
              (t[j].text == "push_back" || t[j].text == "insert" ||
               t[j].text.rfind("emplace", 0) == 0)) {
            tainted.insert(t[stmt_first].text);
          }
          if (stmt_first != 0 && j == stmt_first + 1 &&
              (IsPunct(t[j], "[") || IsPunct(t[j], "+") || IsPunct(t[j], "="))) {
            tainted.insert(t[stmt_first].text);
          }
        }
      }
    }
    // Iterator form: `target.assign(u.begin(), ...)` / `target.insert(...,
    // u.begin(), ...)` — the statement's first identifier picks up the
    // taint when the statement mentions `u.begin` for an unordered `u`.
    if (t[i].kind == TokKind::kIdentifier && unordered.count(t[i].text) > 0 &&
        i + 2 < def.body_end && IsPunct(t[i + 1], ".") &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin")) {
      // Walk back to the statement start and take its first identifier.
      size_t j = i;
      while (j > def.body_begin && !IsPunct(t[j - 1], ";") && !IsPunct(t[j - 1], "{") &&
             !IsPunct(t[j - 1], "}")) {
        --j;
      }
      if (t[j].kind == TokKind::kIdentifier) {
        tainted.insert(t[j].text);
        container = t[i].text;
      }
    }
  }
  if (tainted.empty()) {
    return info;
  }
  // Laundering: sorting a tainted value fixes its order. `sort(x...)` or
  // `std::sort(x.begin()...)` with a tainted identifier in the argument
  // list clears the taint (the canonical fix this rule exists to demand).
  for (size_t i = def.body_begin; i < def.body_end; ++i) {
    if (!IsIdentTok(t[i], "sort") && !IsIdentTok(t[i], "stable_sort")) {
      continue;
    }
    if (i + 1 >= def.body_end || !IsPunct(t[i + 1], "(")) {
      continue;
    }
    int depth = 0;
    for (size_t j = i + 1; j <= def.body_end; ++j) {
      if (IsPunct(t[j], "(")) {
        ++depth;
      } else if (IsPunct(t[j], ")")) {
        if (--depth == 0) {
          break;
        }
      } else if (t[j].kind == TokKind::kIdentifier && tainted.count(t[j].text) > 0) {
        tainted.clear();
        break;
      }
    }
    if (tainted.empty()) {
      break;
    }
  }
  if (tainted.empty()) {
    return info;
  }
  // Tainted return: a `return` statement mentioning a tainted identifier.
  for (size_t i = def.body_begin; i < def.body_end; ++i) {
    if (!IsIdentTok(t[i], "return")) {
      continue;
    }
    for (size_t j = i + 1; j < def.body_end && !IsPunct(t[j], ";"); ++j) {
      if (t[j].kind == TokKind::kIdentifier && tainted.count(t[j].text) > 0) {
        info.tainted_return = true;
        info.container = container;
        return info;
      }
    }
  }
  return info;
}

// Sink identifiers: referencing any of these marks a function as feeding
// the digest/coverage machinery.
bool IsSinkIdent(const std::string& s) {
  static const std::set<std::string> kSinks = {
      "FNV",  "Fnv1a",       "Digest",      "StateDigest",
      "Mix",  "StateHash",   "CoverageMap", "CaseDigest",
  };
  return kSinks.count(s) > 0;
}

void CheckDigestTaint(const Index& index, std::vector<Finding>* out) {
  // Pass 1: per-function taint (intra-body).
  std::map<std::string, TaintInfo> tainted_fns;  // by unqualified name
  for (const FunctionDef& def : index.functions) {
    const TaintInfo info = AnalyzeBody(def);
    if (info.tainted_return && tainted_fns.count(def.method_name) == 0) {
      tainted_fns[def.method_name] = info;
    }
  }
  if (tainted_fns.empty()) {
    return;
  }
  // Pass 2: propagate through returns — a function that returns the result
  // of a tainted function is itself tainted (fixpoint, cross-file).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionDef& def : index.functions) {
      if (tainted_fns.count(def.method_name) > 0) {
        continue;
      }
      const std::vector<Token>& t = def.file->tokens;
      for (size_t i = def.body_begin; i < def.body_end; ++i) {
        if (!IsIdentTok(t[i], "return")) {
          continue;
        }
        for (size_t j = i + 1; j < def.body_end && !IsPunct(t[j], ";"); ++j) {
          if (t[j].kind == TokKind::kIdentifier && j + 1 <= def.body_end &&
              IsPunct(t[j + 1], "(") && tainted_fns.count(t[j].text) > 0) {
            tainted_fns[def.method_name] = tainted_fns[t[j].text];
            changed = true;
            break;
          }
        }
        if (changed) {
          break;
        }
      }
    }
  }
  // Pass 3: flag calls to tainted functions inside sink-context bodies.
  for (const FunctionDef& def : index.functions) {
    if (InBench(def.file->path)) {
      continue;
    }
    const std::vector<Token>& t = def.file->tokens;
    bool sink = def.method_name == "StateDigest";
    for (size_t i = def.body_begin; i <= def.body_end && !sink; ++i) {
      if (t[i].kind == TokKind::kIdentifier && IsSinkIdent(t[i].text)) {
        sink = true;
      }
    }
    if (!sink) {
      continue;
    }
    for (size_t i = def.body_begin; i < def.body_end; ++i) {
      if (t[i].kind != TokKind::kIdentifier || i + 1 > def.body_end ||
          !IsPunct(t[i + 1], "(")) {
        continue;
      }
      auto it = tainted_fns.find(t[i].text);
      if (it == tainted_fns.end() || t[i].text == def.method_name) {
        continue;
      }
      EmitAt(*def.file, t[i].line, t[i].column, "digest-taint",
             "'" + def.method_name + "' feeds digest/coverage state with the "
             "result of '" + it->first + "', which is minted from iteration "
             "over unordered container '" + it->second.container +
             "': hash order is not deterministic across libstdc++ builds — "
             "sort before returning, or use an ordered container",
             def.method_name + "/" + it->first, out);
    }
  }
}

}  // namespace

void CheckStructuralRules(const Index& index, std::vector<Finding>* out) {
  CheckSnapshotFieldCoverage(index, out);
  CheckDigestTaint(index, out);
}

}  // namespace detlint
