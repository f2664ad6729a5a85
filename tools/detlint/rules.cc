// detlint rule implementations. Rules operate on the token stream of one
// file (plus one whole-project pass for message dispatch). Everything here
// is heuristic in the way any token-level linter is — the suppression
// syntax exists precisely so a considered exception can be recorded with
// its reason — but each heuristic is tuned to this repository's idioms
// (see DESIGN notes in detlint.h).

#include "detlint.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

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

void Emit(const SourceFile& file, const Token& token, const std::string& rule,
          const std::string& message, const std::string& subject,
          std::vector<Finding>* out) {
  Finding finding;
  finding.rule = rule;
  finding.file = file.path;
  finding.line = token.line;
  finding.column = token.column;
  finding.message = message;
  finding.snippet = SnippetAt(file, token.line);
  finding.subject = subject;
  out->push_back(std::move(finding));
}

bool IsIdent(const Token& token, const char* text) {
  return token.kind == TokKind::kIdentifier && token.text == text;
}

// True when tokens[i] is reached through a member access (`x.f`, `x->f`).
bool IsMemberAccess(const std::vector<Token>& tokens, size_t i) {
  if (i == 0) {
    return false;
  }
  const Token& prev = tokens[i - 1];
  if (prev.kind == TokKind::kPunct && prev.text == ".") {
    return true;
  }
  if (prev.kind == TokKind::kPunct && prev.text == ">" && i >= 2 &&
      tokens[i - 2].kind == TokKind::kPunct && tokens[i - 2].text == "-") {
    return true;
  }
  return false;
}

// True when tokens[i] is `std::`-qualified, or unqualified; false when it is
// qualified by some other scope (`sim::time` would be fine, `std::time` not).
bool IsStdOrUnqualified(const std::vector<Token>& tokens, size_t i) {
  if (i >= 2 && tokens[i - 1].kind == TokKind::kPunct && tokens[i - 1].text == ":" &&
      tokens[i - 2].kind == TokKind::kPunct && tokens[i - 2].text == ":") {
    return i >= 3 && IsIdent(tokens[i - 3], "std");
  }
  return true;
}

bool NextIs(const std::vector<Token>& tokens, size_t i, const char* punct) {
  return i + 1 < tokens.size() && tokens[i + 1].kind == TokKind::kPunct &&
         tokens[i + 1].text == punct;
}

bool PathContains(const std::string& path, const std::string& dir) {
  return path.rfind(dir + "/", 0) == 0 || path.find("/" + dir + "/") != std::string::npos;
}

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- function-scope scanner -------------------------------------------------
//
// detlint needs to know which `{ ... }` regions are function bodies: the
// static-local rule fires only inside them, and the unordered-iteration
// rule groups its evidence per function. A `{` opens a function body when
// walking left over declarator tokens first reaches a `)` (function or
// ctor-initializer parameter list); class/enum/namespace/initializer braces
// reach something else first.

struct FunctionBody {
  std::string name;  // best-effort: identifier before the parameter list
  size_t begin = 0;  // token index of `{`
  size_t end = 0;    // token index of matching `}`
};

bool IsDeclaratorSkippable(const Token& token) {
  if (token.kind == TokKind::kIdentifier) {
    static const std::set<std::string> kStoppers = {
        "class", "struct", "union", "enum", "namespace", "do", "else", "try",
    };
    return kStoppers.count(token.text) == 0;
  }
  if (token.kind == TokKind::kPunct) {
    static const std::set<std::string> kSkippable = {
        ":", "<", ">", "&", "*", ",", "-", "[", "]",
    };
    return kSkippable.count(token.text) > 0;
  }
  return token.kind == TokKind::kNumber;
}

// Walks back from tokens[open] (a `{`) and decides whether it opens a
// function body; fills `name` with the function's identifier when it does.
bool OpensFunctionBody(const std::vector<Token>& tokens, size_t open, std::string* name) {
  size_t i = open;
  while (i > 0) {
    --i;
    const Token& token = tokens[i];
    if (token.kind == TokKind::kPunct && token.text == ")") {
      // Walk to the matching '(' and take the identifier before it.
      int depth = 1;
      size_t j = i;
      while (j > 0 && depth > 0) {
        --j;
        if (tokens[j].kind == TokKind::kPunct && tokens[j].text == ")") {
          ++depth;
        } else if (tokens[j].kind == TokKind::kPunct && tokens[j].text == "(") {
          --depth;
        }
      }
      if (j > 0 && tokens[j - 1].kind == TokKind::kIdentifier) {
        *name = tokens[j - 1].text;
      }
      return true;
    }
    if (!IsDeclaratorSkippable(token)) {
      return false;
    }
  }
  return false;
}

// All function bodies, outermost only (a lambda inside a function belongs
// to its enclosing function's body for our purposes).
std::vector<FunctionBody> FindFunctionBodies(const std::vector<Token>& tokens) {
  std::vector<FunctionBody> bodies;
  struct Scope {
    bool function = false;
  };
  std::vector<Scope> stack;
  size_t functions_open = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokKind::kPunct) {
      continue;
    }
    if (token.text == "{") {
      std::string name;
      const bool function = functions_open == 0 && OpensFunctionBody(tokens, i, &name);
      if (function) {
        bodies.push_back(FunctionBody{name, i, 0});
      }
      if (function || functions_open > 0) {
        ++functions_open;
        stack.push_back(Scope{true});
      } else {
        stack.push_back(Scope{false});
      }
    } else if (token.text == "}") {
      if (stack.empty()) {
        continue;  // unbalanced; bail out of tracking gracefully
      }
      if (stack.back().function) {
        --functions_open;
        if (functions_open == 0 && !bodies.empty() && bodies.back().end == 0) {
          bodies.back().end = i;
        }
      }
      stack.pop_back();
    }
  }
  if (!bodies.empty() && bodies.back().end == 0) {
    bodies.back().end = tokens.size() - 1;
  }
  return bodies;
}

// --- determinism rules ------------------------------------------------------

void CheckBannedIdentifiers(const SourceFile& file, std::vector<Finding>* out) {
  static const std::set<std::string> kRand = {"rand",    "srand",   "drand48",
                                             "lrand48", "mrand48", "arc4random"};
  static const std::set<std::string> kClockTypes = {"system_clock", "steady_clock",
                                                    "high_resolution_clock"};
  static const std::set<std::string> kClockCalls = {
      "gettimeofday", "clock_gettime", "localtime", "gmtime", "mktime", "timespec_get"};
  static const std::set<std::string> kEnv = {"getenv", "secure_getenv", "setenv",
                                             "putenv", "unsetenv"};
  // campaign.cc owns the NEAT_* knob surface; bench/ drivers run on the
  // host and may read the same knobs (bench scope is wall-clock/raw-rand).
  const bool env_exempt = PathEndsWith(file.path, "neat/campaign.cc") ||
                          PathContains(file.path, "bench");
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokKind::kIdentifier || IsMemberAccess(tokens, i)) {
      continue;
    }
    if (token.text == "random_device") {
      Emit(file, token, "raw-rand",
           "std::random_device is a nondeterminism source; draw from the "
           "simulation's seeded sim::Rng substreams instead",
           token.text, out);
      continue;
    }
    if (kRand.count(token.text) > 0 && NextIs(tokens, i, "(") &&
        IsStdOrUnqualified(tokens, i)) {
      Emit(file, token, "raw-rand",
           token.text + "() bypasses the seeded sim::Rng; all randomness must be "
           "replayable from the run's seed",
           token.text, out);
      continue;
    }
    if (kClockTypes.count(token.text) > 0) {
      Emit(file, token, "wall-clock",
           "std::chrono::" + token.text + " reads the host clock; simulated code "
           "must use virtual time (sim::Simulator::Now)",
           token.text, out);
      continue;
    }
    if ((kClockCalls.count(token.text) > 0 ||
         ((token.text == "time" || token.text == "clock") && IsStdOrUnqualified(tokens, i))) &&
        NextIs(tokens, i, "(")) {
      Emit(file, token, "wall-clock",
           token.text + "() reads the host clock; simulated code must use virtual "
           "time (sim::Simulator::Now)",
           token.text, out);
      continue;
    }
    if (kEnv.count(token.text) > 0 && NextIs(tokens, i, "(") && !env_exempt) {
      Emit(file, token, "env-read",
           token.text + "() makes behaviour depend on the host environment; only "
           "src/neat/campaign.cc may read the NEAT_* knobs",
           token.text, out);
      continue;
    }
  }
}

void CheckThreadPrimitives(const SourceFile& file, std::vector<Finding>* out) {
  if (!PathContains(file.path, "sim") && !PathContains(file.path, "systems")) {
    return;
  }
  static const std::set<std::string> kStdThreading = {
      "thread",        "jthread",        "mutex",
      "shared_mutex",  "recursive_mutex", "timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",        "atomic_flag",    "future",
      "promise",       "async",          "counting_semaphore",
      "binary_semaphore", "barrier",     "latch",
      "lock_guard",    "unique_lock",    "scoped_lock", "call_once", "once_flag",
  };
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokKind::kIdentifier) {
      continue;
    }
    const bool pthread = token.text.rfind("pthread_", 0) == 0;
    const bool std_qualified =
        i >= 3 && tokens[i - 1].text == ":" && tokens[i - 2].text == ":" &&
        IsIdent(tokens[i - 3], "std") && kStdThreading.count(token.text) > 0;
    if (pthread || std_qualified) {
      Emit(file, token, "thread-primitive",
           "threading primitive '" + token.text + "' inside the single-threaded "
           "simulation layer; only the campaign runner may manage threads",
           token.text, out);
    }
  }
}

void CheckStaticLocals(const SourceFile& file, std::vector<Finding>* out) {
  if (!PathContains(file.path, "sim") && !PathContains(file.path, "systems") &&
      !PathContains(file.path, "cluster")) {
    return;
  }
  const std::vector<Token>& tokens = file.tokens;
  const std::vector<FunctionBody> bodies = FindFunctionBodies(tokens);
  for (const FunctionBody& body : bodies) {
    for (size_t i = body.begin + 1; i < body.end; ++i) {
      if (!IsIdent(tokens[i], "static")) {
        continue;
      }
      const Token& next = tokens[i + 1];
      if (next.kind == TokKind::kIdentifier &&
          (next.text == "const" || next.text == "constexpr" || next.text == "constinit")) {
        continue;  // immutable locals cannot carry state between runs
      }
      Emit(file, tokens[i], "static-local",
           "mutable function-local static in '" + body.name + "' leaks state "
           "across runs and campaign workers; make it per-instance",
           "static@" + body.name, out);
    }
  }
}

// Names of variables declared with an unordered container type anywhere in
// the file (members, locals, parameters).
std::set<std::string> UnorderedVariableNames(const std::vector<Token>& tokens) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  std::set<std::string> names;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdentifier || kUnordered.count(tokens[i].text) == 0) {
      continue;
    }
    size_t j = i + 1;
    if (j >= tokens.size() || tokens[j].text != "<") {
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
    // Skip reference/pointer/cv tokens between the type and the name.
    for (++j; j < tokens.size(); ++j) {
      const Token& t = tokens[j];
      if (t.kind == TokKind::kPunct && (t.text == "&" || t.text == "*")) {
        continue;
      }
      if (IsIdent(t, "const")) {
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

void CheckUnorderedIteration(const SourceFile& file, std::vector<Finding>* out) {
  const std::vector<Token>& tokens = file.tokens;
  const std::set<std::string> unordered = UnorderedVariableNames(tokens);
  if (unordered.empty()) {
    return;
  }
  static const std::set<std::string> kSinks = {"TraceLog",  "TraceEvent", "CoverageMap",
                                               "Digest",    "StateDigest", "StateHash"};
  for (const FunctionBody& body : FindFunctionBodies(tokens)) {
    bool sink = body.name == "StateDigest";
    for (size_t i = body.begin; i <= body.end && !sink; ++i) {
      if (tokens[i].kind == TokKind::kIdentifier &&
          (kSinks.count(tokens[i].text) > 0 ||
           (tokens[i].text == "Trace" && NextIs(tokens, i, "(")))) {
        sink = true;
      }
    }
    if (!sink) {
      continue;
    }
    for (size_t i = body.begin; i < body.end; ++i) {
      // Range-for over an unordered container: `for (... : expr)` where the
      // range expression mentions an unordered-typed variable.
      if (IsIdent(tokens[i], "for") && NextIs(tokens, i, "(")) {
        int depth = 0;
        size_t colon = 0;
        size_t close = 0;
        for (size_t j = i + 1; j < tokens.size(); ++j) {
          if (tokens[j].kind != TokKind::kPunct) {
            continue;
          }
          if (tokens[j].text == "(") {
            ++depth;
          } else if (tokens[j].text == ")") {
            if (--depth == 0) {
              close = j;
              break;
            }
          } else if (tokens[j].text == ":" && depth == 1 && colon == 0 &&
                     tokens[j - 1].text != ":" && tokens[j + 1].text != ":") {
            colon = j;
          }
        }
        if (colon != 0 && close != 0) {
          for (size_t j = colon + 1; j < close; ++j) {
            if (tokens[j].kind == TokKind::kIdentifier && unordered.count(tokens[j].text) > 0) {
              Emit(file, tokens[j], "unordered-iteration",
                   "iteration over unordered container '" + tokens[j].text + "' in '" +
                       body.name + "', which feeds a trace/digest; hash order is "
                       "not deterministic across libstdc++ builds — iterate a "
                       "sorted copy or an ordered container",
                   body.name + "/" + tokens[j].text, out);
              break;
            }
          }
        }
      }
      // Iterator-based: `container.begin()` and friends.
      if (tokens[i].kind == TokKind::kIdentifier && unordered.count(tokens[i].text) > 0 &&
          NextIs(tokens, i, ".") && i + 2 < tokens.size()) {
        const std::string& member = tokens[i + 2].text;
        if (member == "begin" || member == "cbegin" || member == "end" ||
            member == "cend") {
          Emit(file, tokens[i], "unordered-iteration",
               "iterator over unordered container '" + tokens[i].text + "' in '" +
                   body.name + "', which feeds a trace/digest; hash order is not "
                   "deterministic across libstdc++ builds",
               body.name + "/" + tokens[i].text, out);
        }
      }
    }
  }
}

// Trace record ids and causal edges must come from stable log positions
// (sim/trace.h): an id minted from a pointer value differs between the
// forked and the replayed execution of the same case and silently breaks
// the fork==replay byte-identity contract. Flag the two ways an address
// becomes an integer in src/: a reinterpret_cast to a (non-pointer)
// integral type, and any use of the uintptr_t/intptr_t conversion types.
void CheckAddressDerivedIds(const SourceFile& file, std::vector<Finding>* out) {
  if (!PathContains(file.path, "src")) {
    return;
  }
  static const std::set<std::string> kIntegral = {
      "uint64_t", "uint32_t", "uint16_t", "int64_t", "int32_t", "size_t",
      "uintptr_t", "intptr_t", "long", "int", "unsigned", "ptrdiff_t"};
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokKind::kIdentifier) {
      continue;
    }
    if (IsIdent(token, "reinterpret_cast") && NextIs(tokens, i, "<")) {
      // Scan the cast target up to the closing '>'. A '*' makes it a
      // pointer cast (no integer is minted); otherwise any integral name
      // in the target means address-to-integer.
      std::string integral;
      bool pointer_target = false;
      size_t j = i + 2;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].kind == TokKind::kPunct &&
            (tokens[j].text == ">" || tokens[j].text == "(")) {
          break;
        }
        if (tokens[j].kind == TokKind::kPunct && tokens[j].text == "*") {
          pointer_target = true;
        }
        if (tokens[j].kind == TokKind::kIdentifier && kIntegral.count(tokens[j].text) > 0) {
          integral = tokens[j].text;
        }
      }
      if (!integral.empty() && !pointer_target) {
        Emit(file, token, "address-derived-id",
             "reinterpret_cast to integral type '" + integral +
                 "' mints an address-derived value; ids fed to traces, causal "
                 "edges, or digests must be stable log positions (fork/replay "
                 "byte-identity)",
             "reinterpret_cast<" + integral + ">", out);
      }
      i = j;  // do not re-flag the conversion type inside the cast
      continue;
    }
    if (IsIdent(token, "uintptr_t") || IsIdent(token, "intptr_t")) {
      Emit(file, token, "address-derived-id",
           "pointer-to-integer type '" + token.text +
               "' — ids fed to traces, causal edges, or digests must be stable "
               "log positions, never addresses (fork/replay byte-identity)",
           token.text, out);
    }
  }
}

// --- model-safety rules -----------------------------------------------------

// Whole-project pass: every message struct (`struct Name final :
// net::MessageOf<Name> {`) must have an `As<Name>` dispatch site somewhere,
// or carry an explicit suppression — the silent unhandled-protocol-event
// omission the paper catalogs.
void CheckUnhandledMessages(const std::vector<SourceFile>& sources,
                            std::vector<Finding>* out) {
  struct MessageDef {
    const SourceFile* file;
    Token token;
    std::string name;
  };
  std::vector<MessageDef> messages;
  std::set<std::string> handled;
  for (const SourceFile& file : sources) {
    // bench/ carries only the determinism rules; a bench-local probe
    // message is not protocol surface. Its dispatch sites still count as
    // handling for message types defined elsewhere.
    const bool collect_defs = !PathContains(file.path, "bench");
    const std::vector<Token>& tokens = file.tokens;
    for (size_t i = 0; i + 2 < tokens.size(); ++i) {
      // `struct Name [final] : ... MessageOf<Name> {`
      if ((IsIdent(tokens[i], "struct") || IsIdent(tokens[i], "class")) &&
          tokens[i + 1].kind == TokKind::kIdentifier) {
        size_t j = i + 2;
        if (IsIdent(tokens[j], "final")) {
          ++j;
        }
        bool message_base = false;
        if (j < tokens.size() && tokens[j].text == ":") {
          for (; j < tokens.size(); ++j) {
            if (tokens[j].kind == TokKind::kPunct &&
                (tokens[j].text == "{" || tokens[j].text == ";")) {
              break;
            }
            if (IsIdent(tokens[j], "MessageOf")) {
              message_base = true;
            }
          }
        }
        if (collect_defs && message_base && j < tokens.size() &&
            tokens[j].text == "{") {
          messages.push_back(MessageDef{&file, tokens[i + 1], tokens[i + 1].text});
        }
      }
      // `As<ns::Name>` — the last identifier inside the template argument
      // is the dispatched message type.
      if (IsIdent(tokens[i], "As") && NextIs(tokens, i, "<")) {
        std::string last_ident;
        for (size_t j = i + 2; j < tokens.size(); ++j) {
          if (tokens[j].kind == TokKind::kIdentifier) {
            last_ident = tokens[j].text;
          } else if (tokens[j].kind == TokKind::kPunct && tokens[j].text == ">") {
            break;
          }
        }
        if (!last_ident.empty()) {
          handled.insert(last_ident);
        }
      }
    }
  }
  for (const MessageDef& message : messages) {
    if (handled.count(message.name) > 0) {
      continue;
    }
    Emit(*message.file, message.token, "unhandled-message",
         "message type '" + message.name + "' has no As<" + message.name +
             "> dispatch site in the tree: a node receiving it will drop it on the "
             "floor — handle it or suppress with the reason it is consumed another way",
         message.name, out);
  }
}

void CheckBadSuppressions(const SourceFile& file, std::vector<Finding>* out) {
  for (int line : file.bad_suppression_lines) {
    Finding finding;
    finding.rule = "bad-suppression";
    finding.file = file.path;
    finding.line = line;
    finding.column = 1;
    finding.message =
        "malformed detlint suppression: the syntax is "
        "`// detlint: allow(<rule>): <reason>` and the reason is mandatory";
    finding.snippet = SnippetAt(file, line);
    finding.subject = "suppression";
    out->push_back(std::move(finding));
  }
}

}  // namespace

int AnalysisResult::NewCount() const {
  int count = 0;
  for (const Finding& finding : findings) {
    if (!finding.baselined) {
      ++count;
    }
  }
  return count;
}

AnalysisResult Analyze(const std::vector<SourceFile>& sources,
                       const std::multimap<std::string, int>& baseline) {
  return Analyze(sources, std::vector<ScnSource>(), baseline);
}

AnalysisResult Analyze(const std::vector<SourceFile>& sources,
                       const std::vector<ScnSource>& scenarios,
                       const std::multimap<std::string, int>& baseline) {
  AnalysisResult result;
  result.files_scanned = static_cast<int>(sources.size() + scenarios.size());
  std::vector<Finding> raw;
  for (const SourceFile& file : sources) {
    // Files under bench/ carry only the sim-scope determinism rules
    // (wall-clock, raw-rand): benches run on the host and may thread or
    // iterate freely, but their BENCH_*.json trajectories are part of the
    // perf record and must replay from the seed like everything else.
    if (PathContains(file.path, "bench")) {
      CheckBannedIdentifiers(file, &raw);
      CheckBadSuppressions(file, &raw);
      continue;
    }
    CheckBannedIdentifiers(file, &raw);
    CheckThreadPrimitives(file, &raw);
    CheckStaticLocals(file, &raw);
    CheckUnorderedIteration(file, &raw);
    CheckAddressDerivedIds(file, &raw);
    CheckBadSuppressions(file, &raw);
  }
  CheckUnhandledMessages(sources, &raw);
  const Index index = BuildIndex(sources);
  CheckStructuralRules(index, &raw);
  CheckScenarios(scenarios, index, &raw);

  // Apply inline suppressions. A trailing allow() (code on the same line)
  // covers that line; an allow() on its own comment line — possibly inside
  // a multi-line comment block — covers the next line that has code.
  // bad-suppression findings cannot be suppressed.
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : sources) {
    by_path[file.path] = &file;
  }
  std::map<const SourceFile*, std::set<int>> token_lines;
  for (const SourceFile& file : sources) {
    for (const Token& token : file.tokens) {
      token_lines[&file].insert(token.line);
    }
  }
  auto target_line = [&token_lines](const SourceFile* file, const Suppression& s) {
    const std::set<int>& lines = token_lines[file];
    if (lines.count(s.line) > 0) {
      return s.line;  // trailing comment: covers its own line
    }
    auto next = lines.upper_bound(s.line);
    return next == lines.end() ? s.line : *next;
  };
  // snapshot-field-coverage accepts the shorthand allow(snapshot-field):
  // the rule id names the analysis; the suppression names the exemption.
  auto rule_matches = [](const std::string& allowed, const std::string& rule) {
    if (allowed == rule) {
      return true;
    }
    return allowed == "snapshot-field" && rule == "snapshot-field-coverage";
  };
  std::vector<Finding> kept;
  for (Finding& finding : raw) {
    bool suppressed = false;
    if (finding.rule != "bad-suppression") {
      auto it = by_path.find(finding.file);
      // Scenario-corpus findings have no tokenized SourceFile (and .scn
      // files carry no suppression syntax); only the baseline covers them.
      const SourceFile* file = it == by_path.end() ? nullptr : it->second;
      if (file != nullptr) {
        for (const Suppression& suppression : file->suppressions) {
          if (rule_matches(suppression.rule, finding.rule) &&
              target_line(file, suppression) == finding.line) {
            suppressed = true;
            break;
          }
        }
      }
    }
    if (suppressed) {
      ++result.suppressed;
    } else {
      kept.push_back(std::move(finding));
    }
  }

  // Baseline matching consumes grandfathered entries by stable key.
  std::map<std::string, int> budget;
  for (const auto& [key, count] : baseline) {
    budget[key] += count;
  }
  for (Finding& finding : kept) {
    auto it = budget.find(BaselineKey(finding));
    if (it != budget.end() && it->second > 0) {
      --it->second;
      finding.baselined = true;
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.column != b.column) {
      return a.column < b.column;
    }
    if (a.rule != b.rule) {
      return a.rule < b.rule;
    }
    // Structural rules can anchor several findings at one token (e.g. two
    // missing overrides on the same class line); the subject breaks the tie
    // so report order never depends on emission order.
    return a.subject < b.subject;
  });
  result.findings = std::move(kept);
  return result;
}

}  // namespace detlint
