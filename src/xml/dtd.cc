#include "xml/dtd.h"

namespace webre {

std::string_view OccurrenceSuffix(Occurrence occ) {
  switch (occ) {
    case Occurrence::kOne:
      return "";
    case Occurrence::kOptional:
      return "?";
    case Occurrence::kStar:
      return "*";
    case Occurrence::kPlus:
      return "+";
  }
  return "";
}

ContentParticle ContentParticle::Element(std::string name, Occurrence occ) {
  ContentParticle p;
  p.kind = Kind::kElement;
  p.occurrence = occ;
  p.name = std::move(name);
  return p;
}

ContentParticle ContentParticle::Pcdata() {
  ContentParticle p;
  p.kind = Kind::kPcdata;
  return p;
}

ContentParticle ContentParticle::Sequence(
    std::vector<ContentParticle> children, Occurrence occ) {
  ContentParticle p;
  p.kind = Kind::kSequence;
  p.occurrence = occ;
  p.children = std::move(children);
  return p;
}

ContentParticle ContentParticle::Choice(std::vector<ContentParticle> children,
                                        Occurrence occ) {
  ContentParticle p;
  p.kind = Kind::kChoice;
  p.occurrence = occ;
  p.children = std::move(children);
  return p;
}

std::string ContentParticle::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kElement:
      out = name;
      break;
    case Kind::kPcdata:
      out = "(#PCDATA)";
      break;
    case Kind::kSequence:
    case Kind::kChoice: {
      const char* sep = kind == Kind::kSequence ? ", " : " | ";
      out.push_back('(');
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out.append(sep);
        out.append(children[i].ToString());
      }
      out.push_back(')');
      break;
    }
  }
  out.append(OccurrenceSuffix(occurrence));
  return out;
}

bool operator==(const ContentParticle& a, const ContentParticle& b) {
  return a.kind == b.kind && a.occurrence == b.occurrence &&
         a.name == b.name && a.children == b.children;
}

std::string ElementDecl::ToString() const {
  std::string out = "<!ELEMENT ";
  out.append(name);
  out.push_back(' ');
  if (pcdata_only) {
    out.append("(#PCDATA)");
  } else {
    std::string body = content.ToString();
    // Top-level content must be parenthesized in DTD syntax.
    if (body.empty() || body.front() != '(') {
      body = "(" + body + ")";
    }
    out.append(body);
  }
  out.push_back('>');
  return out;
}

void Dtd::set_root(std::string root) {
  root_id_ = root.empty() ? kInvalidNameId : InternName(root);
  root_ = std::move(root);
}

void Dtd::AddElement(ElementDecl decl) {
  ContentAutomaton model = decl.pcdata_only ? ContentAutomaton()
                                            : ContentAutomaton(decl.content);
  const NameId id = InternName(decl.name);
  auto it = index_.find(id);
  if (it != index_.end()) {
    elements_[it->second] = std::move(decl);
    models_[it->second] = std::move(model);
    return;
  }
  index_.emplace(id, elements_.size());
  elements_.push_back(std::move(decl));
  models_.push_back(std::move(model));
}

size_t Dtd::IndexOf(NameId name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kNotDeclared : it->second;
}

const ElementDecl* Dtd::Find(std::string_view name) const {
  // Every declared name was interned by AddElement, so a name the table
  // has never seen is undeclared (IndexOf(kInvalidNameId) finds nothing).
  const size_t i = IndexOf(NameTable::Global().Find(name));
  return i == kNotDeclared ? nullptr : &elements_[i];
}

std::string Dtd::ToString(bool include_attlist) const {
  std::string out;
  for (const ElementDecl& decl : elements_) {
    out.append(decl.ToString());
    out.push_back('\n');
    if (include_attlist) {
      out.append("<!ATTLIST ");
      out.append(decl.name);
      out.append(" val CDATA #IMPLIED>\n");
    }
  }
  return out;
}

}  // namespace webre
