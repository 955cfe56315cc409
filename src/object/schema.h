#ifndef AQUA_OBJECT_SCHEMA_H_
#define AQUA_OBJECT_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace aqua {

/// Identifier of a registered object type within a `Schema`.
using TypeId = uint32_t;

inline constexpr TypeId kInvalidType = static_cast<TypeId>(-1);

/// Declaration of one attribute of an object type.
///
/// The `stored` flag mirrors §3.1 of the paper: alphabet-predicates may only
/// mention *stored* attributes (so they are evaluable in constant time); the
/// optimizer — not the user — verifies this against the schema.
struct AttrDef {
  std::string name;
  ValueType type = ValueType::kNull;
  bool stored = true;
};

/// Declaration of an object type: a name plus an ordered attribute list.
class TypeDef {
 public:
  TypeDef(std::string name, std::vector<AttrDef> attrs);

  const std::string& name() const { return name_; }
  const std::vector<AttrDef>& attrs() const { return attrs_; }
  size_t num_attrs() const { return attrs_.size(); }

  /// Returns the positional index of attribute `attr_name`, or NotFound.
  Result<size_t> AttrIndex(const std::string& attr_name) const;

  /// True when the type declares `attr_name`.
  bool HasAttr(const std::string& attr_name) const;

 private:
  std::string name_;
  std::vector<AttrDef> attrs_;
  std::unordered_map<std::string, size_t> index_;
};

/// The catalog of object types known to an `ObjectStore`.
class Schema {
 public:
  Schema() = default;
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  /// Registers a new type; fails with AlreadyExists on a duplicate name.
  Result<TypeId> RegisterType(std::string name, std::vector<AttrDef> attrs);

  Result<TypeId> TypeIdOf(const std::string& name) const;
  Result<const TypeDef*> GetType(TypeId id) const;
  Result<const TypeDef*> GetType(const std::string& name) const;

  size_t num_types() const { return types_.size(); }

  /// True when some registered type declares `attr_name` with
  /// `stored = false`. A predicate reading none of these attributes cannot
  /// violate the §3.1 stored-attribute rule, whatever objects it meets.
  bool IsComputedAttr(const std::string& attr_name) const {
    return computed_attrs_.count(attr_name) > 0;
  }

 private:
  std::vector<TypeDef> types_;
  std::unordered_map<std::string, TypeId> by_name_;
  std::unordered_set<std::string> computed_attrs_;
};

}  // namespace aqua

#endif  // AQUA_OBJECT_SCHEMA_H_
