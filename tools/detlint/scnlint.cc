// scnlint: the scenario-corpus rule family. A `.scn` file is executable
// configuration — a fault rule naming a message type that no system ever
// sends parses into a scenario that silently tests nothing. These checks
// cross-validate the corpus against the scenario parser (which validates
// systems and presets against the system registry) and the structural
// index's harvest of message descriptor names, and report through the
// same finding/baseline/JSON machinery as every other rule.

#include <algorithm>
#include <string>
#include <vector>

#include "index.h"
#include "scenario/parser.h"

namespace detlint {
namespace {

// Findings in .scn files have no token stream; snippets come straight from
// the raw line.
std::string ScnSnippet(const ScnSource& scn, int line) {
  if (line < 1) {
    return "";
  }
  int at = 1;
  size_t begin = 0;
  while (at < line) {
    const size_t nl = scn.contents.find('\n', begin);
    if (nl == std::string::npos) {
      return "";
    }
    begin = nl + 1;
    ++at;
  }
  size_t end = scn.contents.find('\n', begin);
  if (end == std::string::npos) {
    end = scn.contents.size();
  }
  std::string snippet = scn.contents.substr(begin, end - begin);
  const size_t first = snippet.find_first_not_of(" \t");
  if (first == std::string::npos) {
    return "";
  }
  const size_t last = snippet.find_last_not_of(" \t\r");
  return snippet.substr(first, last - first + 1);
}

void EmitScn(const ScnSource& scn, int line, int column, const std::string& rule,
             const std::string& message, const std::string& subject,
             std::vector<Finding>* out) {
  Finding finding;
  finding.rule = rule;
  finding.file = scn.path;
  finding.line = line;
  finding.column = column;
  finding.message = message;
  finding.snippet = ScnSnippet(scn, line);
  finding.subject = subject;
  out->push_back(std::move(finding));
}

void CheckFaultTypeNames(const ScnSource& scn, const scenario::Scenario& scenario,
                         const Index& index, std::vector<Finding>* out) {
  if (index.message_type_names.empty()) {
    return;  // no C++ sources in the scan set; nothing to validate against
  }
  // Ambient faults and inject steps both carry a FaultRule; the parser does
  // not record per-rule positions, so anchor at the line that names the
  // type (first occurrence; subjects keep baseline keys stable regardless).
  std::vector<std::string> names;
  for (const net::FaultRule& rule : scenario.ambient_faults) {
    names.push_back(rule.type_name);
  }
  for (const scenario::Step& step : scenario.steps) {
    if (step.kind == scenario::Step::Kind::kInject) {
      names.push_back(step.fault.type_name);
    }
  }
  for (const std::string& name : names) {
    if (index.message_type_names.count(name) > 0) {
      continue;
    }
    int line = 1;
    int column = 1;
    const size_t at = scn.contents.find("\"" + name + "\"");
    if (at != std::string::npos) {
      line = 1 + static_cast<int>(
                     std::count(scn.contents.begin(),
                                scn.contents.begin() + static_cast<long>(at), '\n'));
      const size_t bol = scn.contents.rfind('\n', at);
      column = static_cast<int>(at - (bol == std::string::npos ? 0 : bol + 1)) + 1;
    }
    EmitScn(scn, line, column, "scn-unknown-message",
            "fault rule targets message type '" + name +
                "', which matches no message descriptor (MessageType kType) "
                "in the indexed sources: the rule can never fire and the "
                "scenario tests less than it claims",
            scenario.name + "/" + name, out);
  }
}

// Line of the `scenario` header (file-level findings anchor there, not at
// a leading comment).
int ScenarioHeaderLine(const ScnSource& scn) {
  int line = 1;
  size_t begin = 0;
  while (begin < scn.contents.size()) {
    const size_t first = scn.contents.find_first_not_of(" \t", begin);
    if (first != std::string::npos &&
        scn.contents.compare(first, 8, "scenario") == 0) {
      return line;
    }
    const size_t nl = scn.contents.find('\n', begin);
    if (nl == std::string::npos) {
      break;
    }
    begin = nl + 1;
    ++line;
  }
  return 1;
}

void CheckExpectBlocks(const ScnSource& scn, const scenario::Scenario& scenario,
                       std::vector<Finding>* out) {
  bool has_flawed = false;
  bool has_correct = false;
  for (const scenario::ExpectBlock& block : scenario.expects) {
    if (block.variant == scenario::Variant::kFlawed) {
      has_flawed = true;
    } else {
      has_correct = true;
    }
  }
  if (has_flawed && has_correct) {
    return;
  }
  const std::string missing = has_flawed ? "correct" : "flawed";
  EmitScn(scn, ScenarioHeaderLine(scn), 1, "scn-missing-expect",
          "scenario '" + scenario.name + "' has no `expect " + missing +
              "` block: every reproduction must assert both the flawed "
              "variant's failure and the correct variant's fix, or the "
              "regression it encodes is only half-checked",
          scenario.name + "/" + missing, out);
}

}  // namespace

void CheckScenarios(const std::vector<ScnSource>& scenarios, const Index& index,
                    std::vector<Finding>* out) {
  for (const ScnSource& scn : scenarios) {
    const scenario::ParseResult parsed = scenario::Parse(scn.contents);
    if (!parsed.ok) {
      for (const scenario::Diagnostic& diag : parsed.diagnostics) {
        EmitScn(scn, diag.line > 0 ? diag.line : 1,
                diag.column > 0 ? diag.column : 1, "scn-parse",
                "scenario file does not parse: " + diag.message, scn.path, out);
      }
      continue;
    }
    // The parser already rejected systems and presets the registry does
    // not know (a scn-parse finding).
    const scenario::Scenario& scenario = parsed.scenario;
    CheckFaultTypeNames(scn, scenario, index, out);
    CheckExpectBlocks(scn, scenario, out);
  }
}

}  // namespace detlint
