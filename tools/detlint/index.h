// The structural index: detlint's second analysis layer.
//
// The token-level rules (rules.cc) see one identifier at a time; the
// contracts that matter most after the fork/replay work are per-class and
// cross-file — "every mutable member of a snapshotted class round-trips
// through Snapshot AND Restore", "a class that can capture must also be
// able to restore", "no digest consumes a value minted from hash-order
// iteration, even through a helper". BuildIndex runs a lightweight
// declaration parser over the token stream (no full C++ parse — the same
// pragmatic subset the whole-tree unhandled-message sweep proved out) and
// produces a repo-wide model: classes with their namespaces, base-class
// names, data members (with const/reference/pointer/static qualifiers),
// declared methods, inline bodies, and every out-of-line function
// definition. The structural rule families (structural_rules.cc) and the
// scenario-corpus checks (scnlint.cc) are built on top of it.

#ifndef TOOLS_DETLINT_INDEX_H_
#define TOOLS_DETLINT_INDEX_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "detlint.h"

namespace detlint {

struct MemberInfo {
  std::string name;
  int line = 0;
  int column = 0;
  bool is_const = false;      // const-qualified: immutable after construction
  bool is_reference = false;  // wiring, not state
  bool is_pointer = false;    // raw pointer: environment wiring by convention
  bool is_static = false;     // static/constexpr: shared, not per-instance
};

struct MethodInfo {
  std::string name;
  int line = 0;
  int column = 0;
  bool has_inline_body = false;
  size_t body_begin = 0;  // token index of '{' in the class's file
  size_t body_end = 0;    // token index of the matching '}'
};

struct ClassInfo {
  std::string name;
  std::string ns;  // enclosing namespaces joined with "::"; "" at global scope
  const SourceFile* file = nullptr;
  int line = 0;
  int column = 0;
  std::vector<MemberInfo> members;
  std::vector<MethodInfo> methods;

  const MethodInfo* FindMethod(const std::string& method) const;
};

// An out-of-line function definition (`Type Class::Method(...) { ... }`) or
// a free function at namespace scope. class_name is empty for free
// functions; ns is the effective enclosing namespace (block namespaces plus
// any extra qualification on the definition).
struct FunctionDef {
  std::string class_name;
  std::string method_name;
  std::string ns;
  const SourceFile* file = nullptr;
  size_t body_begin = 0;
  size_t body_end = 0;
  int line = 0;
};

struct Index {
  std::vector<ClassInfo> classes;      // declaration order across all files
  std::vector<FunctionDef> functions;  // out-of-line + free definitions
  // Every name a message descriptor declares (`MessageType kType{"..."}`)
  // — the protocol vocabulary scnlint validates `inject` clauses against.
  std::set<std::string> message_type_names;

  // Locates the body of Class::Method: the inline body if the declaration
  // has one, otherwise the out-of-line definition with matching class,
  // method, and namespace. Returns false when only a declaration exists in
  // the scanned set (partial trees are skipped, not flagged).
  bool FindBody(const ClassInfo& cls, const std::string& method,
                const SourceFile** file, size_t* begin, size_t* end) const;
};

Index BuildIndex(const std::vector<SourceFile>& sources);

// The structural rule families (snapshot-field-coverage, digest-taint).
// Called from Analyze.
void CheckStructuralRules(const Index& index, std::vector<Finding>* out);

// The scenario-corpus rule family (scn-parse, scn-unknown-message,
// scn-missing-expect). Called from Analyze when .scn sources are in the
// scan set.
void CheckScenarios(const std::vector<ScnSource>& scenarios, const Index& index,
                    std::vector<Finding>* out);

}  // namespace detlint

#endif  // TOOLS_DETLINT_INDEX_H_
