// Parser for the ".scn" scenario format.
//
// The grammar (documented in full in DESIGN.md):
//
//   scenario "name" {
//     system pbkv                 # pbkv | raftkv | locksvc | mqueue
//     preset voltdb               # flawed-variant options preset (optional)
//     seed 7                      # run-mode seed (optional, default 1)
//     causal                      # collect causal traces (optional)
//     inject drop "pbkv.Replicate" limit 3   # ambient fault (optional)
//     campaign { ... }            # exactly one of campaign | run
//     run { ... }
//     expect flawed { ... }       # at least one expect block
//     expect correct { ... }
//   }
//
// The parser is a hand-rolled lexer + recursive descent over it. It never
// throws and never crashes on malformed input: the first error stops the
// parse and is reported as a Diagnostic with a 1-based line/column and a
// message naming what was expected — the contract the negative-parse
// corpus (tests/scenarios/bad/) pins down.

#ifndef SCENARIO_PARSER_H_
#define SCENARIO_PARSER_H_

#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace scenario {

struct Diagnostic {
  int line = 0;  // 1-based; 0 for file-level errors (unreadable file)
  int column = 0;
  std::string message;
};

struct ParseResult {
  bool ok = false;
  Scenario scenario;  // valid only when ok
  std::vector<Diagnostic> diagnostics;
};

ParseResult Parse(const std::string& text);
ParseResult ParseFile(const std::string& path);

// One line per diagnostic: "file:line:col: message" (the file prefix is
// omitted when `file` is empty). This exact rendering is what the golden
// .diag files in the negative corpus contain.
std::string FormatDiagnostics(const ParseResult& result, const std::string& file = "");

}  // namespace scenario

#endif  // SCENARIO_PARSER_H_
