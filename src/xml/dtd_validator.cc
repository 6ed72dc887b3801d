#include "xml/dtd_validator.h"

#include <string>
#include <vector>

namespace webre {
namespace {

void ValidateElement(const Node& element, const Dtd& dtd,
                     std::vector<NameId>& child_ids,
                     DtdValidationResult& result) {
  const size_t decl_index = dtd.IndexOf(element.name_id());
  if (decl_index == Dtd::kNotDeclared) {
    result.violations.push_back(
        {std::string(element.name()),
         "element <" + std::string(element.name()) + "> is not declared"});
  } else if (!dtd.elements()[decl_index].pcdata_only) {
    child_ids.clear();
    for (size_t i = 0; i < element.child_count(); ++i) {
      const Node* child = element.child(i);
      if (child->is_element()) child_ids.push_back(child->name_id());
    }
    if (!dtd.content_model(decl_index).Accepts(child_ids)) {
      std::string got = "(";
      for (size_t i = 0; i < child_ids.size(); ++i) {
        if (i > 0) got.append(", ");
        got.append(NameTable::Global().NameOf(child_ids[i]));
      }
      got.push_back(')');
      result.violations.push_back(
          {std::string(element.name()),
           "children " + got + " do not match content model " +
               dtd.elements()[decl_index].content.ToString()});
    }
  } else {
    for (size_t i = 0; i < element.child_count(); ++i) {
      if (element.child(i)->is_element()) {
        result.violations.push_back(
            {std::string(element.name()),
             "element <" + std::string(element.name()) +
                 "> is declared (#PCDATA) but has element children"});
        break;
      }
    }
  }
  for (size_t i = 0; i < element.child_count(); ++i) {
    const Node* child = element.child(i);
    if (child->is_element()) ValidateElement(*child, dtd, child_ids, result);
  }
}

}  // namespace

DtdValidationResult ValidateAgainstDtd(const Node& root, const Dtd& dtd) {
  DtdValidationResult result;
  if (!root.is_element()) {
    result.violations.push_back({"", "document root is not an element"});
    return result;
  }
  if (!dtd.root().empty() && root.name_id() != dtd.root_id()) {
    result.violations.push_back(
        {std::string(root.name()), "root element <" + std::string(root.name()) +
                                       "> does not match DTD root <" +
                                       dtd.root() + ">"});
  }
  std::vector<NameId> child_ids;
  ValidateElement(root, dtd, child_ids, result);
  return result;
}

bool ConformsToDtd(const Node& root, const Dtd& dtd) {
  if (!root.is_element()) return false;
  if (!dtd.root().empty() && root.name_id() != dtd.root_id()) return false;
  // The checks of ValidateElement, stopping at the first violation and
  // building no message. Iterative; one child-id buffer serves every
  // element. A (#PCDATA)-only declaration's model accepts only the empty
  // child sequence, so one Accepts call covers both declaration kinds.
  std::vector<NameId> child_ids;
  std::vector<const Node*> pending{&root};
  while (!pending.empty()) {
    const Node& element = *pending.back();
    pending.pop_back();
    const size_t decl_index = dtd.IndexOf(element.name_id());
    if (decl_index == Dtd::kNotDeclared) return false;
    child_ids.clear();
    for (size_t i = 0; i < element.child_count(); ++i) {
      const Node* child = element.child(i);
      if (!child->is_element()) continue;
      child_ids.push_back(child->name_id());
      pending.push_back(child);
    }
    if (!dtd.content_model(decl_index).Accepts(child_ids)) return false;
  }
  return true;
}

}  // namespace webre
