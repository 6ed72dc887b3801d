#ifndef WEBRE_XML_DTD_VALIDATOR_H_
#define WEBRE_XML_DTD_VALIDATOR_H_

#include <string>
#include <vector>

#include "xml/dtd.h"
#include "xml/node.h"

namespace webre {

/// One validation problem found by ValidateAgainstDtd.
struct DtdViolation {
  /// Element name at which the violation occurred.
  std::string element;
  /// Human-readable description.
  std::string message;
};

/// Result of validating one document against a DTD.
struct DtdValidationResult {
  std::vector<DtdViolation> violations;

  bool valid() const { return violations.empty(); }
};

/// Validates the element tree rooted at `root` against `dtd`.
///
/// Checks performed:
///  - the root element name matches `dtd.root()` (when non-empty);
///  - every element is declared;
///  - each element's sequence of child *elements* matches its content
///    model (text children are permitted everywhere, mirroring the
///    paper's convention that every element carries character data via
///    `val` / #PCDATA).
///
/// Validation continues past violations so the result lists all problems.
DtdValidationResult ValidateAgainstDtd(const Node& root, const Dtd& dtd);

/// True iff the document conforms: `ValidateAgainstDtd(root, dtd).valid()`,
/// decided without building any violation and returning at the first.
bool ConformsToDtd(const Node& root, const Dtd& dtd);

}  // namespace webre

#endif  // WEBRE_XML_DTD_VALIDATOR_H_
