#include "scenario/parser.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "scenario/executor.h"

namespace scenario {
namespace {

// The registry's system names as an English list: "a, b, or c".
std::string SystemList() {
  const std::vector<neat::SystemEntry>& rows = neat::Systems();
  std::string list;
  for (size_t i = 0; i < rows.size(); ++i) {
    list += (i == 0 ? "" : i + 1 == rows.size() ? ", or " : ", ") + rows[i].name;
  }
  return list;
}

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentChar(char c) {
  return IsIdentStart(c) || (c >= '0' && c <= '9') || c == '-';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

struct Token {
  enum class Kind { kIdent, kNumber, kString, kLBrace, kRBrace, kEol, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;   // identifier spelling / string contents
  int64_t number = 0; // kNumber value, without the unit
  std::string unit;   // kNumber suffix ("ms"); empty for a plain integer
  int line = 1;
  int column = 1;
};

// Cuts the source into tokens. Newlines are significant (statements are
// line-terminated) and surface as kEol tokens; '#' comments run to end of
// line. Returns false with a diagnostic on a malformed token.
bool Lex(const std::string& text, std::vector<Token>* out, Diagnostic* error) {
  int line = 1;
  int column = 1;
  size_t i = 0;
  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k, ++i) {
      if (text[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      advance(1);
      continue;
    }
    if (c == '#') {
      while (i < text.size() && text[i] != '\n') {
        advance(1);
      }
      continue;
    }
    Token token;
    token.line = line;
    token.column = column;
    if (c == '\n') {
      token.kind = Token::Kind::kEol;
      advance(1);
    } else if (c == '{') {
      token.kind = Token::Kind::kLBrace;
      advance(1);
    } else if (c == '}') {
      token.kind = Token::Kind::kRBrace;
      advance(1);
    } else if (c == '"') {
      advance(1);
      token.kind = Token::Kind::kString;
      while (i < text.size() && text[i] != '"' && text[i] != '\n') {
        token.text.push_back(text[i]);
        advance(1);
      }
      if (i >= text.size() || text[i] != '"') {
        *error = {token.line, token.column, "unterminated string literal"};
        return false;
      }
      advance(1);
    } else if (IsDigit(c)) {
      token.kind = Token::Kind::kNumber;
      std::string digits;
      while (i < text.size() && IsDigit(text[i])) {
        digits.push_back(text[i]);
        advance(1);
      }
      if (digits.size() > 15) {
        *error = {token.line, token.column, "number too large"};
        return false;
      }
      token.number = static_cast<int64_t>(std::stoll(digits));
      while (i < text.size() && IsIdentStart(text[i])) {
        token.unit.push_back(text[i]);
        advance(1);
      }
      token.text = digits + token.unit;
    } else if (IsIdentStart(c)) {
      token.kind = Token::Kind::kIdent;
      while (i < text.size() && IsIdentChar(text[i])) {
        token.text.push_back(text[i]);
        advance(1);
      }
    } else {
      *error = {line, column, std::string("unexpected character '") + c + "'"};
      return false;
    }
    out->push_back(std::move(token));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.line = line;
  end.column = column;
  out->push_back(std::move(end));
  return true;
}

// Recursive descent over the token stream. Fail-fast: the first error
// records one diagnostic and unwinds, so a malformed file yields exactly
// one actionable message.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ParseResult Run() {
    ParseResult result;
    if (ParseScenario()) {
      result.ok = true;
      result.scenario = std::move(scenario_);
    } else {
      result.diagnostics.push_back(error_);
    }
    return result;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() {
    const Token& token = tokens_[pos_];
    if (token.kind != Token::Kind::kEnd) {
      ++pos_;
    }
    return token;
  }
  void SkipEols() {
    while (Peek().kind == Token::Kind::kEol) {
      ++pos_;
    }
  }
  bool AtStatementEnd() const {
    const Token::Kind kind = Peek().kind;
    return kind == Token::Kind::kEol || kind == Token::Kind::kRBrace ||
           kind == Token::Kind::kEnd;
  }

  bool Fail(const Token& at, std::string message) {
    return Fail(at.line, at.column, std::move(message));
  }
  bool Fail(int line, int column, std::string message) {
    error_ = {line, column, std::move(message)};
    return false;
  }

  static std::string Describe(const Token& token) {
    switch (token.kind) {
      case Token::Kind::kIdent:
        return "'" + token.text + "'";
      case Token::Kind::kNumber:
        return "number " + token.text;
      case Token::Kind::kString:
        return "\"" + token.text + "\"";
      case Token::Kind::kLBrace:
        return "'{'";
      case Token::Kind::kRBrace:
        return "'}'";
      case Token::Kind::kEol:
        return "end of line";
      case Token::Kind::kEnd:
        return "end of file";
    }
    return "?";
  }

  bool ExpectEol(const std::string& after) {
    const Token& token = Peek();
    if (token.kind == Token::Kind::kEol || token.kind == Token::Kind::kEnd) {
      return true;  // kEnd: the top level reports unclosed blocks itself
    }
    return Fail(token, "expected end of line after " + after + ", found " + Describe(token));
  }

  bool ExpectBlockOpen(const std::string& what) {
    const Token& brace = Next();
    if (brace.kind != Token::Kind::kLBrace) {
      return Fail(brace, "expected '{' to open the " + what + " block, found " + Describe(brace));
    }
    return ExpectEol("'{'");
  }

  // --- leaf parsers ---

  bool ParseDuration(sim::Duration* out, const std::string& what) {
    const Token& token = Next();
    if (token.kind != Token::Kind::kNumber) {
      return Fail(token, "expected a duration after " + what + ", found " + Describe(token));
    }
    if (token.unit == "us") {
      *out = sim::Microseconds(token.number);
    } else if (token.unit == "ms") {
      *out = sim::Milliseconds(token.number);
    } else if (token.unit == "s") {
      *out = sim::Seconds(token.number);
    } else if (token.unit.empty()) {
      return Fail(token, "duration '" + token.text + "' needs a unit: us, ms, or s");
    } else {
      return Fail(token, "unknown duration unit '" + token.unit + "' (expected us, ms, or s)");
    }
    return true;
  }

  bool ParseCount(int64_t* out, const std::string& what, int64_t min_value) {
    const Token& token = Next();
    if (token.kind != Token::Kind::kNumber || !token.unit.empty()) {
      return Fail(token, "expected a number after " + what + ", found " + Describe(token));
    }
    if (token.number < min_value) {
      return Fail(token, what + " must be at least " + std::to_string(min_value));
    }
    *out = token.number;
    return true;
  }

  bool ParseNodeId(net::NodeId* out, const std::string& what) {
    const Token& token = Next();
    if (token.kind != Token::Kind::kNumber || !token.unit.empty()) {
      return Fail(token, "expected a node id after " + what + ", found " + Describe(token));
    }
    if (token.number > 1000000) {
      return Fail(token, "node id " + token.text + " is out of range");
    }
    *out = static_cast<net::NodeId>(token.number);
    return true;
  }

  // inject (drop|delay|reorder) "Type" [by DUR] [limit N] [from N] [to N]
  bool ParseInject(net::FaultRule* out) {
    const Token& action = Next();
    if (action.kind != Token::Kind::kIdent) {
      return Fail(action, "expected a fault action after 'inject', found " + Describe(action));
    }
    if (action.text == "drop") {
      out->action = net::FaultRule::Action::kDrop;
    } else if (action.text == "delay") {
      out->action = net::FaultRule::Action::kDelay;
    } else if (action.text == "reorder") {
      out->action = net::FaultRule::Action::kReorder;
    } else {
      return Fail(action, "unknown fault action '" + action.text +
                              "' (expected drop, delay, or reorder)");
    }
    const Token& type = Next();
    if (type.kind != Token::Kind::kString) {
      return Fail(type, "expected a quoted message type after 'inject " + action.text +
                            "', found " + Describe(type));
    }
    if (type.text.empty()) {
      return Fail(type, "message type must not be empty");
    }
    out->type_name = type.text;
    bool saw_by = false;
    bool saw_limit = false;
    bool saw_from = false;
    bool saw_to = false;
    while (!AtStatementEnd()) {
      const Token& mod = Next();
      if (mod.kind != Token::Kind::kIdent) {
        return Fail(mod, "expected a fault modifier, found " + Describe(mod));
      }
      if (mod.text == "by") {
        if (out->action != net::FaultRule::Action::kDelay) {
          return Fail(mod, "'by' applies only to delay faults");
        }
        if (saw_by) {
          return Fail(mod, "duplicate 'by' modifier");
        }
        saw_by = true;
        if (!ParseDuration(&out->delay, "'by'")) {
          return false;
        }
      } else if (mod.text == "limit") {
        if (saw_limit) {
          return Fail(mod, "duplicate 'limit' modifier");
        }
        saw_limit = true;
        int64_t limit = 0;
        if (!ParseCount(&limit, "'limit'", 1)) {
          return false;
        }
        out->limit = static_cast<uint64_t>(limit);
      } else if (mod.text == "from") {
        if (saw_from) {
          return Fail(mod, "duplicate 'from' modifier");
        }
        saw_from = true;
        if (!ParseNodeId(&out->src, "'from'")) {
          return false;
        }
      } else if (mod.text == "to") {
        if (saw_to) {
          return Fail(mod, "duplicate 'to' modifier");
        }
        saw_to = true;
        if (!ParseNodeId(&out->dst, "'to'")) {
          return false;
        }
      } else {
        return Fail(mod, "unknown fault modifier '" + mod.text +
                             "' (expected by, limit, from, or to)");
      }
    }
    if (out->action == net::FaultRule::Action::kDelay && !saw_by) {
      return Fail(action, "delay faults need 'by <duration>'");
    }
    return ExpectEol("the inject step");
  }

  // --- campaign block ---

  bool ParseCampaign(const Token& keyword) {
    if (scenario_.campaign.present) {
      return Fail(keyword, "duplicate campaign block");
    }
    if (scenario_.has_run) {
      return Fail(keyword, "scenario has both a run and a campaign block (pick one)");
    }
    scenario_.campaign.present = true;
    if (!ExpectBlockOpen("campaign")) {
      return false;
    }
    CampaignSpec& spec = scenario_.campaign;
    bool saw_events = false, saw_partitions = false, saw_targets = false, saw_sides = false;
    bool saw_max = false, saw_prune = false, saw_seeds = false, saw_threads = false;
    while (true) {
      SkipEols();
      if (Peek().kind == Token::Kind::kRBrace) {
        Next();
        return ExpectEol("'}'");
      }
      if (Peek().kind == Token::Kind::kEnd) {
        return Fail(Peek(), "unexpected end of file: unclosed campaign block");
      }
      const Token& key = Next();
      if (key.kind != Token::Kind::kIdent) {
        return Fail(key, "expected a campaign setting, found " + Describe(key));
      }
      if (key.text == "events") {
        if (saw_events) return Fail(key, "duplicate 'events' setting");
        saw_events = true;
        spec.events.clear();
        if (!ParseList(&spec.events, key, &Parser::EventKindFromName)) return false;
      } else if (key.text == "partitions") {
        if (saw_partitions) return Fail(key, "duplicate 'partitions' setting");
        saw_partitions = true;
        spec.partitions.clear();
        if (!ParseList(&spec.partitions, key, &Parser::PartitionKindFromName)) return false;
      } else if (key.text == "targets") {
        if (saw_targets) return Fail(key, "duplicate 'targets' setting");
        saw_targets = true;
        spec.targets.clear();
        if (!ParseList(&spec.targets, key, &Parser::TargetFromName)) return false;
      } else if (key.text == "sides") {
        if (saw_sides) return Fail(key, "duplicate 'sides' setting");
        saw_sides = true;
        spec.sides.clear();
        if (!ParseList(&spec.sides, key, &Parser::SideFromName)) return false;
      } else if (key.text == "max-length") {
        if (saw_max) return Fail(key, "duplicate 'max-length' setting");
        saw_max = true;
        int64_t value = 0;
        if (!ParseCount(&value, "'max-length'", 1)) return false;
        if (value > 8) return Fail(key, "max-length above 8 is not supported");
        spec.max_length = static_cast<int>(value);
        if (!ExpectEol("'max-length'")) return false;
      } else if (key.text == "prune") {
        if (saw_prune) return Fail(key, "duplicate 'prune' setting");
        saw_prune = true;
        const Token& mode = Next();
        if (mode.kind != Token::Kind::kIdent ||
            (mode.text != "paper" && mode.text != "none")) {
          return Fail(mode, "expected 'paper' or 'none' after 'prune', found " + Describe(mode));
        }
        spec.paper_pruning = mode.text == "paper";
        if (!ExpectEol("'prune'")) return false;
      } else if (key.text == "seeds") {
        if (saw_seeds) return Fail(key, "duplicate 'seeds' setting");
        saw_seeds = true;
        int64_t value = 0;
        if (!ParseCount(&value, "'seeds'", 1)) return false;
        spec.seeds = static_cast<int>(value);
        if (!ExpectEol("'seeds'")) return false;
      } else if (key.text == "threads") {
        if (saw_threads) return Fail(key, "duplicate 'threads' setting");
        saw_threads = true;
        int64_t value = 0;
        if (!ParseCount(&value, "'threads'", 1)) return false;
        spec.threads = static_cast<int>(value);
        if (!ExpectEol("'threads'")) return false;
      } else {
        return Fail(key, "unknown campaign setting '" + key.text + "'");
      }
    }
  }

  bool EventKindFromName(const Token& token, neat::EventKind* out) {
    if (token.text == "write") *out = neat::EventKind::kWrite;
    else if (token.text == "read") *out = neat::EventKind::kRead;
    else if (token.text == "delete") *out = neat::EventKind::kDelete;
    else if (token.text == "lock") *out = neat::EventKind::kLock;
    else if (token.text == "unlock") *out = neat::EventKind::kUnlock;
    else return Fail(token, "unknown event kind '" + token.text +
                                "' (expected write, read, delete, lock, or unlock)");
    return true;
  }
  bool PartitionKindFromName(const Token& token, neat::PartitionKind* out) {
    if (token.text == "complete") *out = neat::PartitionKind::kComplete;
    else if (token.text == "partial") *out = neat::PartitionKind::kPartial;
    else if (token.text == "simplex") *out = neat::PartitionKind::kSimplex;
    else return Fail(token, "unknown partition kind '" + token.text +
                                "' (expected complete, partial, or simplex)");
    return true;
  }
  bool TargetFromName(const Token& token, neat::IsolationTarget* out) {
    if (token.text == "leader") *out = neat::IsolationTarget::kLeader;
    else if (token.text == "any-replica") *out = neat::IsolationTarget::kAnyReplica;
    else return Fail(token, "unknown isolation target '" + token.text +
                                "' (expected leader or any-replica)");
    return true;
  }
  bool SideFromName(const Token& token, neat::Side* out) {
    if (token.text == "minority") *out = neat::Side::kMinority;
    else if (token.text == "majority") *out = neat::Side::kMajority;
    else return Fail(token, "unknown side '" + token.text +
                                "' (expected minority or majority)");
    return true;
  }

  template <typename T>
  bool ParseList(std::vector<T>* out, const Token& key,
                 bool (Parser::*from_name)(const Token&, T*)) {
    while (!AtStatementEnd()) {
      const Token& token = Next();
      if (token.kind != Token::Kind::kIdent) {
        return Fail(token, "expected a value after '" + key.text + "', found " + Describe(token));
      }
      T value;
      if (!(this->*from_name)(token, &value)) {
        return false;
      }
      out->push_back(value);
    }
    if (out->empty()) {
      return Fail(key, "'" + key.text + "' needs at least one value");
    }
    return ExpectEol("'" + key.text + "'");
  }

  // --- run block ---

  bool ParseRun(const Token& keyword) {
    if (scenario_.has_run) {
      return Fail(keyword, "duplicate run block");
    }
    if (scenario_.campaign.present) {
      return Fail(keyword, "scenario has both a campaign and a run block (pick one)");
    }
    scenario_.has_run = true;
    if (!ExpectBlockOpen("run")) {
      return false;
    }
    return ParseRunBody("run");
  }

  bool ParseRunBody(const std::string& what) {
    while (true) {
      SkipEols();
      if (Peek().kind == Token::Kind::kRBrace) {
        Next();
        return ExpectEol("'}'");
      }
      if (Peek().kind == Token::Kind::kEnd) {
        return Fail(Peek(), "unexpected end of file: unclosed " + what + " block");
      }
      if (!ParseRunStatement()) {
        return false;
      }
    }
  }

  bool ParseRunStatement() {
    const Token& key = Next();
    if (key.kind != Token::Kind::kIdent) {
      return Fail(key, "expected a step, found " + Describe(key));
    }
    Step step;
    if (key.text == "partition") {
      const Token& kind = Next();
      if (kind.kind != Token::Kind::kIdent) {
        return Fail(kind, "expected a partition kind after 'partition', found " + Describe(kind));
      }
      if (!PartitionKindFromName(kind, &step.event.partition)) {
        return false;
      }
      step.event.kind = neat::EventKind::kPartition;
      if (!AtStatementEnd()) {
        const Token& target = Next();
        if (target.kind != Token::Kind::kIdent) {
          return Fail(target, "expected an isolation target, found " + Describe(target));
        }
        if (!TargetFromName(target, &step.event.target)) {
          return false;
        }
      }
      scenario_.steps.push_back(std::move(step));
      return ExpectEol("'partition'");
    }
    if (key.text == "heal") {
      step.event.kind = neat::EventKind::kHeal;
      scenario_.steps.push_back(std::move(step));
      return ExpectEol("'heal'");
    }
    if (key.text == "write" || key.text == "read" || key.text == "delete" ||
        key.text == "lock" || key.text == "unlock") {
      if (!EventKindFromName(key, &step.event.kind)) {
        return false;
      }
      if (!AtStatementEnd()) {
        const Token& side = Next();
        if (side.kind != Token::Kind::kIdent) {
          return Fail(side, "expected a side, found " + Describe(side));
        }
        if (!SideFromName(side, &step.event.side)) {
          return false;
        }
      }
      scenario_.steps.push_back(std::move(step));
      return ExpectEol("'" + key.text + "'");
    }
    if (key.text == "crash" || key.text == "restart") {
      step.kind = key.text == "crash" ? Step::Kind::kCrash : Step::Kind::kRestart;
      while (!AtStatementEnd()) {
        net::NodeId node = net::kInvalidNode;
        if (!ParseNodeId(&node, "'" + key.text + "'")) {
          return false;
        }
        step.nodes.push_back(node);
      }
      if (step.nodes.empty()) {
        return Fail(key, "'" + key.text + "' needs at least one node id");
      }
      scenario_.steps.push_back(std::move(step));
      return ExpectEol("'" + key.text + "'");
    }
    if (key.text == "sleep") {
      step.kind = Step::Kind::kSleep;
      if (!ParseDuration(&step.duration, "'sleep'")) {
        return false;
      }
      scenario_.steps.push_back(std::move(step));
      return ExpectEol("'sleep'");
    }
    if (key.text == "inject") {
      step.kind = Step::Kind::kInject;
      if (!ParseInject(&step.fault)) {
        return false;
      }
      scenario_.steps.push_back(std::move(step));
      return true;  // ParseInject consumed through end of line
    }
    if (key.text == "clear-faults") {
      step.kind = Step::Kind::kClearFaults;
      scenario_.steps.push_back(std::move(step));
      return ExpectEol("'clear-faults'");
    }
    if (key.text == "phase") {
      const Token& name = Next();
      if (name.kind != Token::Kind::kString) {
        return Fail(name, "expected a quoted phase name after 'phase', found " + Describe(name));
      }
      if (!ExpectBlockOpen("phase")) {
        return false;
      }
      Step begin;
      begin.kind = Step::Kind::kPhaseBegin;
      begin.phase = name.text;
      scenario_.steps.push_back(std::move(begin));
      if (!ParseRunBody("phase")) {
        return false;
      }
      Step end;
      end.kind = Step::Kind::kPhaseEnd;
      end.phase = name.text;
      scenario_.steps.push_back(std::move(end));
      return true;
    }
    return Fail(key, "unknown step '" + key.text + "' in run block");
  }

  // --- expect block ---

  bool ParseExpect() {
    const Token& variant_token = Next();
    Variant variant;
    if (variant_token.kind == Token::Kind::kIdent && variant_token.text == "flawed") {
      variant = Variant::kFlawed;
    } else if (variant_token.kind == Token::Kind::kIdent && variant_token.text == "correct") {
      variant = Variant::kCorrect;
    } else {
      return Fail(variant_token, "expected 'flawed' or 'correct' after 'expect', found " +
                                     Describe(variant_token));
    }
    for (const ExpectBlock& block : scenario_.expects) {
      if (block.variant == variant) {
        return Fail(variant_token,
                    "duplicate expect block for the " + variant_token.text + " variant");
      }
    }
    if (!ExpectBlockOpen("expect")) {
      return false;
    }
    ExpectBlock block;
    block.variant = variant;
    while (true) {
      SkipEols();
      if (Peek().kind == Token::Kind::kRBrace) {
        const Token& brace = Next();
        if (block.expectations.empty()) {
          return Fail(brace, "expect block needs at least one expectation");
        }
        scenario_.expects.push_back(std::move(block));
        return ExpectEol("'}'");
      }
      if (Peek().kind == Token::Kind::kEnd) {
        return Fail(Peek(), "unexpected end of file: unclosed expect block");
      }
      const Token& key = Next();
      if (key.kind != Token::Kind::kIdent) {
        return Fail(key, "expected an expectation, found " + Describe(key));
      }
      Expectation expectation;
      expectation.line = key.line;
      expectation.column = key.column;
      if (key.text == "clean") {
        expectation.kind = Expectation::Kind::kClean;
      } else if (key.text == "violation") {
        expectation.kind = Expectation::Kind::kViolation;
        const Token& needle = Next();
        if (needle.kind != Token::Kind::kString) {
          return Fail(needle,
                      "expected a quoted impact after 'violation', found " + Describe(needle));
        }
        if (needle.text.empty()) {
          return Fail(needle, "violation impact must not be empty");
        }
        expectation.needle = needle.text;
      } else if (key.text == "linearizable") {
        expectation.kind = Expectation::Kind::kLinearizable;
      } else if (key.text == "no-lost-ops") {
        expectation.kind = Expectation::Kind::kNoLostOps;
      } else if (key.text == "no-cascade") {
        expectation.kind = Expectation::Kind::kNoCascade;
      } else if (key.text == "status-converges") {
        expectation.kind = Expectation::Kind::kStatusConverges;
      } else {
        return Fail(key, "unknown expectation '" + key.text +
                             "' (expected clean, violation, linearizable, no-lost-ops, "
                             "no-cascade, or status-converges)");
      }
      if (!ExpectEol("'" + key.text + "'")) {
        return false;
      }
      block.expectations.push_back(std::move(expectation));
    }
  }

  // --- top level ---

  bool ParseScenarioClause() {
    const Token& key = Next();
    if (key.kind != Token::Kind::kIdent) {
      return Fail(key, "expected a scenario clause, found " + Describe(key));
    }
    if (key.text == "system") {
      if (!scenario_.system.empty()) {
        return Fail(key, "duplicate 'system' clause");
      }
      const Token& name = Next();
      if (name.kind != Token::Kind::kIdent) {
        return Fail(name, "expected a system name after 'system', found " + Describe(name));
      }
      if (!KnownSystem(name.text)) {
        return Fail(name, "unknown system '" + name.text + "' (expected " + SystemList() + ")");
      }
      scenario_.system = name.text;
      return ExpectEol("'system'");
    }
    if (key.text == "preset") {
      if (saw_preset_) {
        return Fail(key, "duplicate 'preset' clause");
      }
      saw_preset_ = true;
      const Token& name = Next();
      if (name.kind != Token::Kind::kIdent) {
        return Fail(name, "expected a preset name after 'preset', found " + Describe(name));
      }
      scenario_.preset = name.text;
      preset_token_ = name;
      return ExpectEol("'preset'");
    }
    if (key.text == "seed") {
      if (saw_seed_) {
        return Fail(key, "duplicate 'seed' clause");
      }
      saw_seed_ = true;
      int64_t value = 0;
      if (!ParseCount(&value, "'seed'", 1)) {
        return false;
      }
      scenario_.seed = static_cast<uint64_t>(value);
      return ExpectEol("'seed'");
    }
    if (key.text == "causal") {
      scenario_.causal = true;
      return ExpectEol("'causal'");
    }
    if (key.text == "inject") {
      net::FaultRule rule;
      if (!ParseInject(&rule)) {
        return false;
      }
      scenario_.ambient_faults.push_back(std::move(rule));
      return true;
    }
    if (key.text == "campaign") {
      return ParseCampaign(key);
    }
    if (key.text == "run") {
      return ParseRun(key);
    }
    if (key.text == "expect") {
      return ParseExpect();
    }
    return Fail(key, "unknown clause '" + key.text + "' in scenario block");
  }

  bool Finalize(const Token& end) {
    if (scenario_.system.empty()) {
      return Fail(end, "scenario needs a 'system' clause");
    }
    if (saw_preset_ && !KnownPreset(scenario_.system, scenario_.preset)) {
      return Fail(preset_token_, "unknown preset '" + scenario_.preset + "' for system '" +
                                     scenario_.system + "'");
    }
    if (!scenario_.campaign.present && !scenario_.has_run) {
      return Fail(end, "scenario needs a 'campaign' or 'run' block");
    }
    if (scenario_.expects.empty()) {
      return Fail(end, "scenario needs at least one expect block");
    }
    for (const ExpectBlock& block : scenario_.expects) {
      for (const Expectation& expectation : block.expectations) {
        if (expectation.kind == Expectation::Kind::kStatusConverges &&
            !scenario_.has_run) {
          return Fail(expectation.line, expectation.column,
                      "status-converges needs a run block (a campaign has no single end state)");
        }
        if (expectation.kind == Expectation::Kind::kNoCascade && !scenario_.causal) {
          return Fail(expectation.line, expectation.column,
                      "no-cascade needs the 'causal' clause (the cascade checker runs on "
                      "causal traces only)");
        }
      }
    }
    return true;
  }

  bool ParseScenario() {
    SkipEols();
    const Token& keyword = Next();
    if (keyword.kind != Token::Kind::kIdent || keyword.text != "scenario") {
      return Fail(keyword, "expected 'scenario' at top of file, found " + Describe(keyword));
    }
    const Token& name = Next();
    if (name.kind != Token::Kind::kString) {
      return Fail(name, "expected a quoted scenario name after 'scenario', found " +
                            Describe(name));
    }
    if (name.text.empty()) {
      return Fail(name, "scenario name must not be empty");
    }
    scenario_.name = name.text;
    if (!ExpectBlockOpen("scenario")) {
      return false;
    }
    while (true) {
      SkipEols();
      if (Peek().kind == Token::Kind::kRBrace) {
        break;
      }
      if (Peek().kind == Token::Kind::kEnd) {
        return Fail(Peek(), "unexpected end of file: unclosed scenario block");
      }
      if (!ParseScenarioClause()) {
        return false;
      }
    }
    const Token& end = Next();  // the closing brace
    SkipEols();
    if (Peek().kind != Token::Kind::kEnd) {
      return Fail(Peek(), "unexpected input after the scenario block: " + Describe(Peek()));
    }
    return Finalize(end);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Scenario scenario_;
  Diagnostic error_;
  bool saw_preset_ = false;
  bool saw_seed_ = false;
  Token preset_token_;
};

}  // namespace

ParseResult Parse(const std::string& text) {
  std::vector<Token> tokens;
  Diagnostic error;
  if (!Lex(text, &tokens, &error)) {
    ParseResult result;
    result.diagnostics.push_back(std::move(error));
    return result;
  }
  return Parser(std::move(tokens)).Run();
}

ParseResult ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult result;
    result.diagnostics.push_back({0, 0, "cannot read scenario file: " + path});
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

std::string FormatDiagnostics(const ParseResult& result, const std::string& file) {
  std::ostringstream out;
  for (const Diagnostic& diagnostic : result.diagnostics) {
    if (!file.empty()) {
      out << file << ":";
    }
    out << diagnostic.line << ":" << diagnostic.column << ": " << diagnostic.message << "\n";
  }
  return out.str();
}

}  // namespace scenario
